open Dpm_core
open Dpm_prob

type stop = Requests of int | Sim_time of float

type segment = {
  seg_start : float;
  seg_end : float;
  seg_power : float;
  seg_waiting_requests : float;
  seg_waiting_time : float;
  seg_generated : int;
  seg_lost : int;
  seg_completed : int;
  seg_switches : int;
}

type result = {
  controller : string;
  duration : float;
  generated : int;
  accepted : int;
  lost : int;
  completed : int;
  avg_power : float;
  avg_waiting_requests : float;
  avg_waiting_time : float;
  waiting_time_stderr : float;
  loss_probability : float;
  controller_decisions : int;
  switch_count : int;
  switch_energy : float;
  mode_residency : float array;
  segments : segment array;
}

type snapshot = {
  snap_time : float;
  snap_event : string;
  snap_mode : int;
  snap_queue : int;
  snap_switching_to : int option;
  snap_in_transfer : bool;
}

(* Metric handles resolved once per run from the active Dpm_obs
   registry, so per-event accounting is a field mutation — no name
   lookup, no allocation.  [None] (metrics disabled) reduces the whole
   hot-loop instrumentation to one match on an immediate. *)
type probes = {
  ev_arrival : Dpm_obs.Metrics.counter;
  ev_arrival_lost : Dpm_obs.Metrics.counter;
  ev_service_done : Dpm_obs.Metrics.counter;
  ev_switch_done : Dpm_obs.Metrics.counter;
  ev_timer : Dpm_obs.Metrics.counter;
  ev_total : Dpm_obs.Metrics.counter;
  heap_depth_max : Dpm_obs.Metrics.gauge;
}

(* Per-segment accumulators: cumulative-integral marks taken at each
   boundary crossing, so segment metrics are exact differences of the
   same accumulators the global metrics use. *)
type seg_state = {
  bounds : float array;
  mutable seg_idx : int;
  mutable seg_open : float; (* start time of the open segment *)
  mutable power_mark : float;
  mutable count_mark : float;
  mutable gen_mark : int;
  mutable lost_mark : int;
  mutable comp_mark : int;
  mutable switch_mark : int;
  mutable seg_waiting : Stat.Welford.t;
  mutable closed : segment list; (* reverse order *)
}

(* The per-event float state.  All-float, so OCaml stores it flat:
   writing the clock or a pending time stores no fresh box into a
   long-lived record and so pays no write barrier.  Arrival, service
   completion and mode switch are each pending at most once, so each
   has a fixed slot here; an empty slot holds [infinity] (and sequence
   number [vacant]). *)
type clock = {
  mutable now : float;
  mutable arrival_at : float;
  mutable service_at : float;
  mutable switch_at : float;
  mutable timer_at : float; (* earliest pending timer, a copy of the heap top *)
  mutable residency_mark : float;
  mutable switch_energy : float;
}

(* Sequence number of an empty slot: it sorts after every pending
   event, including one scheduled at [infinity]. *)
let vacant = max_int

(* Events, named by the slot they fire from. *)
type event = Arrival | Service_done | Switch_done | Timer_fired

type sim = {
  sp : Service_provider.t;
  capacity : int;
  ctl : Controller.t;
  decision_energy : float;
  observer : (snapshot -> unit) option;
  arrival_rng : Rng.t;
  service_rng : Rng.t;
  switch_rng : Rng.t;
  workload : Workload.t;
  clock : clock;
  (* Pending events fire by (time, sequence number); one counter,
     bumped at every scheduling, orders ties by scheduling order. *)
  mutable next_seq : int;
  mutable arrival_seq : int;
  mutable service_seq : int;
  mutable switch_seq : int;
  mutable switch_target : int; (* -1: no switch pending *)
  timers : int Event_heap.t; (* controller timers; payload = sequence number *)
  mutable timer_seq : int; (* of the heap top, [vacant] when empty *)
  (* dynamic state *)
  mutable mode : int;
  mutable in_transfer : bool;
  queue : float Queue.t; (* arrival timestamps, head = in service (if any) *)
  (* statistics *)
  power : Stat.Time_weighted.t;
  count : Stat.Time_weighted.t;
  waiting : Stat.Welford.t;
  residency : float array;
  mutable generated : int;
  mutable accepted : int;
  mutable lost : int;
  mutable completed : int;
  mutable switch_count : int;
  mutable decisions : int;
  mutable events_processed : int;
  probes : probes option;
  seg : seg_state option;
}

let close_segment s g ~upto =
  let width = upto -. g.seg_open in
  let power_now = Stat.Time_weighted.integral s.power ~upto in
  let count_now = Stat.Time_weighted.integral s.count ~upto in
  let avg integral = if width > 0.0 then integral /. width else 0.0 in
  let wt =
    if Stat.Welford.count g.seg_waiting = 0 then 0.0
    else Stat.Welford.mean g.seg_waiting
  in
  g.closed <-
    {
      seg_start = g.seg_open;
      seg_end = upto;
      seg_power = avg (power_now -. g.power_mark);
      seg_waiting_requests = avg (count_now -. g.count_mark);
      seg_waiting_time = wt;
      seg_generated = s.generated - g.gen_mark;
      seg_lost = s.lost - g.lost_mark;
      seg_completed = s.completed - g.comp_mark;
      seg_switches = s.switch_count - g.switch_mark;
    }
    :: g.closed;
  g.seg_open <- upto;
  g.power_mark <- power_now;
  g.count_mark <- count_now;
  g.gen_mark <- s.generated;
  g.lost_mark <- s.lost;
  g.comp_mark <- s.completed;
  g.switch_mark <- s.switch_count;
  g.seg_waiting <- Stat.Welford.create ()

(* Close every segment whose boundary is at or before [upto]; called
   before handling an event at [upto], so the accumulators still hold
   the pre-event signal and the integral up to the boundary is
   exact. *)
let flush_segments s g ~upto =
  while g.seg_idx < Array.length g.bounds && g.bounds.(g.seg_idx) <= upto do
    close_segment s g ~upto:g.bounds.(g.seg_idx);
    g.seg_idx <- g.seg_idx + 1
  done

(* At end of run: remaining boundaries (past the horizon) all collapse
   to zero-width segments at [duration], so every run over the same
   boundary list reports the same number of segments. *)
let finalize_segments s ~duration =
  match s.seg with
  | None -> [||]
  | Some g ->
      while g.seg_idx < Array.length g.bounds do
        close_segment s g ~upto:(Float.min g.bounds.(g.seg_idx) duration);
        g.seg_idx <- g.seg_idx + 1
      done;
      close_segment s g ~upto:duration;
      Array.of_list (List.rev g.closed)

let switching_to s = if s.switch_target < 0 then None else Some s.switch_target

let observation s =
  {
    Controller.time = s.clock.now;
    mode = s.mode;
    switching_to = switching_to s;
    queue_length = Queue.length s.queue;
    in_transfer = s.in_transfer;
  }

let settle_residency s =
  let c = s.clock in
  s.residency.(s.mode) <- s.residency.(s.mode) +. (c.now -. c.residency_mark);
  c.residency_mark <- c.now

let take_seq s =
  let q = s.next_seq in
  s.next_seq <- q + 1;
  q

let cancel_switch s =
  s.clock.switch_at <- infinity;
  s.switch_seq <- vacant;
  s.switch_target <- -1

let start_switch s target =
  let rate = Service_provider.switch_rate s.sp s.mode target in
  let delay = Dist.exponential_sample s.switch_rng ~rate in
  s.clock.switch_at <- s.clock.now +. delay;
  s.switch_seq <- take_seq s;
  s.switch_target <- target

let maybe_start_service s =
  if
    s.service_seq = vacant
    && (not s.in_transfer)
    && (not (Queue.is_empty s.queue))
    && Service_provider.is_active s.sp s.mode
  then begin
    let rate = Service_provider.service_rate s.sp s.mode in
    let delay = Dist.exponential_sample s.service_rng ~rate in
    s.clock.service_at <- s.clock.now +. delay;
    s.service_seq <- take_seq s
  end

(* Re-read the heap top after it changed. *)
let refresh_timer s =
  match Event_heap.peek s.timers with
  | None ->
      s.clock.timer_at <- infinity;
      s.timer_seq <- vacant
  | Some (time, seq) ->
      s.clock.timer_at <- time;
      s.timer_seq <- seq

let add_timer s time =
  let seq = take_seq s in
  Event_heap.push s.timers ~time seq;
  (* A later push has a larger sequence number, so only a strictly
     earlier time displaces the top. *)
  if s.timer_seq = vacant || time < s.clock.timer_at then begin
    s.clock.timer_at <- time;
    s.timer_seq <- seq
  end

let apply_decision s (d : Controller.decision) =
  (match d.timer with
  | Some delay when delay >= 0.0 -> add_timer s (s.clock.now +. delay)
  | Some _ | None -> ());
  (match d.target with
  | None -> ()
  | Some t when t < 0 || t >= Service_provider.num_modes s.sp ->
      invalid_arg "Power_sim: controller commanded an unknown mode"
  | Some t ->
      if t = s.mode then begin
        (* "Stay": cancel any pending switch; a transfer resolves
           instantly (the paper's infinite self-switch rate). *)
        cancel_switch s;
        s.in_transfer <- false
      end
      else if t <> s.switch_target then begin
        (* Constraint (1): never pull an active SP off a request in
           flight.  The command is dropped; the controller will be
           consulted again on the next event. *)
        let service_in_progress = s.service_seq <> vacant in
        let target_inactive = not (Service_provider.is_active s.sp t) in
        if not (service_in_progress && target_inactive) then start_switch s t
      end);
  maybe_start_service s

let consult s reason =
  s.decisions <- s.decisions + 1;
  if s.decision_energy > 0.0 then
    Stat.Time_weighted.add_impulse s.power s.decision_energy;
  apply_decision s (s.ctl.Controller.decide (observation s) reason)

let notify_observer s label =
  match s.observer with
  | None -> ()
  | Some f ->
      f
        {
          snap_time = s.clock.now;
          snap_event = label;
          snap_mode = s.mode;
          snap_queue = Queue.length s.queue;
          snap_switching_to = switching_to s;
          snap_in_transfer = s.in_transfer;
        }

let schedule_next_arrival s =
  match Workload.next_arrival s.workload s.arrival_rng ~now:s.clock.now with
  | None -> ()
  | Some t ->
      if Float.is_nan t then invalid_arg "Power_sim: NaN arrival time";
      s.clock.arrival_at <- t;
      s.arrival_seq <- take_seq s

let[@inline] earlier (t : float) (q : int) (t' : float) (q' : int) =
  t < t' || (t = t' && q < q')

(* The earliest pending event by (time, sequence number).  The
   [Some] values are constants, so this allocates nothing. *)
let next_event s =
  let c = s.clock in
  let k = ref (Some Arrival) and t = ref c.arrival_at and q = ref s.arrival_seq in
  if earlier c.service_at s.service_seq !t !q then begin
    k := Some Service_done;
    t := c.service_at;
    q := s.service_seq
  end;
  if earlier c.switch_at s.switch_seq !t !q then begin
    k := Some Switch_done;
    t := c.switch_at;
    q := s.switch_seq
  end;
  if earlier c.timer_at s.timer_seq !t !q then begin
    k := Some Timer_fired;
    q := s.timer_seq
  end;
  if !q = vacant then None else !k

let[@inline] event_time c = function
  | Arrival -> c.arrival_at
  | Service_done -> c.service_at
  | Switch_done -> c.switch_at
  | Timer_fired -> c.timer_at

(* Pending events right after one was handled: occupied slots plus
   timers. *)
let pending s =
  Bool.to_int (s.arrival_seq <> vacant)
  + Bool.to_int (s.service_seq <> vacant)
  + Bool.to_int (s.switch_seq <> vacant)
  + Event_heap.size s.timers

let handle_event s event =
  let c = s.clock in
  let label =
    match event with
    | Arrival ->
        c.arrival_at <- infinity;
        s.arrival_seq <- vacant;
        s.generated <- s.generated + 1;
        schedule_next_arrival s;
        if Queue.length s.queue >= s.capacity then begin
          s.lost <- s.lost + 1;
          consult s Controller.Arrival_lost;
          "arrival_lost"
        end
        else begin
          Queue.add c.now s.queue;
          s.accepted <- s.accepted + 1;
          Stat.Time_weighted.update s.count ~at:c.now
            (float_of_int (Queue.length s.queue));
          consult s Controller.Arrival;
          "arrival"
        end
    | Service_done ->
        c.service_at <- infinity;
        s.service_seq <- vacant;
        let level = Queue.length s.queue in
        let wait = c.now -. Queue.pop s.queue in
        Stat.Welford.add s.waiting wait;
        (match s.seg with
        | Some g -> Stat.Welford.add g.seg_waiting wait
        | None -> ());
        s.completed <- s.completed + 1;
        s.in_transfer <- true;
        Stat.Time_weighted.update s.count ~at:c.now
          (float_of_int (Queue.length s.queue));
        consult s (Controller.Service_completed level);
        (* A controller that issues no command leaves the SP where it
           is, and an SP that is not switching keeps serving: resolve
           the transfer instantly rather than stall the server. *)
        if s.in_transfer && s.switch_target < 0 then begin
          s.in_transfer <- false;
          maybe_start_service s
        end;
        "service_done"
    | Switch_done ->
        let target = s.switch_target in
        cancel_switch s;
        settle_residency s;
        let energy = Service_provider.switch_energy s.sp s.mode target in
        c.switch_energy <- c.switch_energy +. energy;
        Stat.Time_weighted.add_impulse s.power energy;
        s.switch_count <- s.switch_count + 1;
        s.mode <- target;
        s.in_transfer <- false;
        Stat.Time_weighted.update s.power ~at:c.now (Service_provider.power s.sp target);
        consult s Controller.Switch_completed;
        "switch_done"
    | Timer_fired ->
        ignore (Event_heap.pop s.timers);
        refresh_timer s;
        consult s Controller.Timer;
        "timer"
  in
  s.events_processed <- s.events_processed + 1;
  (match s.probes with
  | None -> ()
  | Some p ->
      Dpm_obs.Metrics.incr p.ev_total;
      (* +1: the event just handled. *)
      Dpm_obs.Metrics.set_max p.heap_depth_max (float_of_int (pending s + 1));
      Dpm_obs.Metrics.incr
        (match event with
        | Arrival ->
            if String.equal label "arrival_lost" then p.ev_arrival_lost
            else p.ev_arrival
        | Service_done -> p.ev_service_done
        | Switch_done -> p.ev_switch_done
        | Timer_fired -> p.ev_timer));
  notify_observer s label

let stopped s = function
  | Requests n -> s.generated >= n
  | Sim_time t -> s.clock.now >= t

let run ?(seed = 1L) ?initial_mode ?(decision_energy = 0.0) ?observer ?segments
    ~sys ~workload ~controller ~stop () =
  let sp = Sys_model.sp sys in
  let initial_mode =
    match initial_mode with
    | Some m ->
        if m < 0 || m >= Service_provider.num_modes sp then
          invalid_arg "Power_sim.run: bad initial mode";
        m
    | None -> Service_provider.fastest_active sp
  in
  (match stop with
  | Requests n when n <= 0 -> invalid_arg "Power_sim.run: request count must be positive"
  | Sim_time t when t <= 0.0 -> invalid_arg "Power_sim.run: horizon must be positive"
  | Requests _ | Sim_time _ -> ());
  let seg =
    match segments with
    | None | Some [] -> None
    | Some bounds ->
        let rec check prev = function
          | [] -> ()
          | b :: rest ->
              if b <= prev || not (Float.is_finite b) then
                invalid_arg
                  "Power_sim.run: segment boundaries must be positive, \
                   finite and strictly increasing";
              check b rest
        in
        check 0.0 bounds;
        Some
          {
            bounds = Array.of_list bounds;
            seg_idx = 0;
            seg_open = 0.0;
            power_mark = 0.0;
            count_mark = 0.0;
            gen_mark = 0;
            lost_mark = 0;
            comp_mark = 0;
            switch_mark = 0;
            seg_waiting = Stat.Welford.create ();
            closed = [];
          }
  in
  let probes =
    match Dpm_obs.Probe.current () with
    | None -> None
    | Some r ->
        let c = Dpm_obs.Metrics.counter r in
        Some
          {
            ev_arrival = c "sim.events.arrival";
            ev_arrival_lost = c "sim.events.arrival_lost";
            ev_service_done = c "sim.events.service_done";
            ev_switch_done = c "sim.events.switch_done";
            ev_timer = c "sim.events.timer";
            ev_total = c "sim.events.total";
            heap_depth_max = Dpm_obs.Metrics.gauge r "sim.heap_depth_max";
          }
  in
  let wall_start = if probes = None then 0.0 else Dpm_obs.Probe.now () in
  let root = Rng.create seed in
  let s =
    {
      sp;
      capacity = Sys_model.queue_capacity sys;
      ctl = controller;
      decision_energy;
      observer;
      arrival_rng = Rng.split root;
      service_rng = Rng.split root;
      switch_rng = Rng.split root;
      workload;
      clock =
        {
          now = 0.0;
          arrival_at = infinity;
          service_at = infinity;
          switch_at = infinity;
          timer_at = infinity;
          residency_mark = 0.0;
          switch_energy = 0.0;
        };
      next_seq = 0;
      arrival_seq = vacant;
      service_seq = vacant;
      switch_seq = vacant;
      switch_target = -1;
      timers = Event_heap.create ();
      timer_seq = vacant;
      mode = initial_mode;
      in_transfer = false;
      queue = Queue.create ();
      power = Stat.Time_weighted.create (Service_provider.power sp initial_mode);
      count = Stat.Time_weighted.create 0.0;
      waiting = Stat.Welford.create ();
      residency = Array.make (Service_provider.num_modes sp) 0.0;
      generated = 0;
      accepted = 0;
      lost = 0;
      completed = 0;
      switch_count = 0;
      decisions = 0;
      events_processed = 0;
      probes;
      seg;
    }
  in
  consult s Controller.Init;
  schedule_next_arrival s;
  let horizon = match stop with Sim_time t -> t | Requests _ -> infinity in
  let c = s.clock in
  let running = ref true in
  while !running && not (stopped s stop) do
    match next_event s with
    | None -> running := false (* workload exhausted *)
    | Some event ->
        let t = event_time c event in
        if t > horizon then begin
          c.now <- horizon;
          running := false
        end
        else begin
          (* The boundary test is inlined so that an event crossing no
             boundary does not box [t] for the call. *)
          (match s.seg with
          | Some g
            when g.seg_idx < Array.length g.bounds && g.bounds.(g.seg_idx) <= t ->
              flush_segments s g ~upto:t
          | Some _ | None -> ());
          c.now <- t;
          handle_event s event
        end
  done;
  settle_residency s;
  if probes <> None then begin
    let wall = Dpm_obs.Probe.now () -. wall_start in
    Dpm_obs.Probe.incr "sim.runs";
    Dpm_obs.Probe.add "sim.decisions" s.decisions;
    Dpm_obs.Probe.record "sim.run_seconds" wall;
    Dpm_obs.Probe.record
      ("sim.controller." ^ s.ctl.Controller.name ^ ".run_seconds")
      wall;
    if wall > 0.0 then
      Dpm_obs.Probe.set "sim.events_per_second"
        (float_of_int s.events_processed /. wall)
  end;
  let duration = c.now in
  let residency_total = Array.fold_left ( +. ) 0.0 s.residency in
  {
    controller = s.ctl.Controller.name;
    duration;
    generated = s.generated;
    accepted = s.accepted;
    lost = s.lost;
    completed = s.completed;
    avg_power = Stat.Time_weighted.average s.power ~upto:duration;
    avg_waiting_requests = Stat.Time_weighted.average s.count ~upto:duration;
    avg_waiting_time = Stat.Welford.mean s.waiting;
    waiting_time_stderr = Stat.Welford.std_error s.waiting;
    loss_probability =
      (if s.generated > 0 then float_of_int s.lost /. float_of_int s.generated
       else 0.0);
    controller_decisions = s.decisions;
    switch_count = s.switch_count;
    switch_energy = c.switch_energy;
    mode_residency =
      (if residency_total > 0.0 then
         Array.map (fun x -> x /. residency_total) s.residency
       else s.residency);
    segments = finalize_segments s ~duration;
  }

let replicate ?seeds ?(seed = 1L) ?n ?domains ?segments ~sys ~workload
    ~controller ~stop () =
  let seeds =
    match (seeds, n) with
    | Some [], _ -> invalid_arg "Power_sim.replicate: empty seed list"
    | Some seeds, Some n when List.length seeds <> n ->
        invalid_arg
          (Printf.sprintf
             "Power_sim.replicate: ~n:%d contradicts the %d explicit seeds" n
             (List.length seeds))
    | Some seeds, _ -> seeds
    | None, n ->
        let n = Option.value n ~default:5 in
        if n <= 0 then
          invalid_arg "Power_sim.replicate: need at least one replication";
        Rng.seed_stream ~base:seed n
  in
  (* Each replication owns its RNG, workload, and controller, so runs
     are independent of scheduling and the parallel result is
     bit-identical to the sequential order.  The thunks are invoked
     from pool domains: they must be safe to call concurrently (all
     constructors in this repository are). *)
  Dpm_par.parallel_map_list ?domains
    (fun seed ->
      run ~seed ?segments ~sys ~workload:(workload ()) ~controller:(controller ())
        ~stop ())
    seeds

let pp ppf r =
  Format.fprintf ppf
    "%-14s power=%7.3f W  waiting=%6.4f req  wait=%6.3f s  loss=%5.2f%%  \
     switches=%d"
    r.controller r.avg_power r.avg_waiting_requests r.avg_waiting_time
    (100.0 *. r.loss_probability)
    r.switch_count
