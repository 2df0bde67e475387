(* Bit-identity pins for the event simulator.  Every float of a
   [Power_sim.result] (segments and mode residency included) and
   every count is compared as raw [Int64] bits against values recorded
   from the binary-heap implementation that predates the fixed event
   slots, over a grid of controllers x workloads x stop rules.  A
   change to the random stream, the event order (ties included) or
   the accounting moves at least one of them.

   The grid covers exact ties on purpose: periodic timers and trace
   arrivals at the same dyadic instants (both tie orders occur, and on
   the sparse trace the order moves the result), a
   trace arrival at a wake-timer instant, zero-delay time-out timers,
   and a controller that cancels pending switches with a "stay"
   command. *)

open Dpm_core
open Dpm_sim

let sys () = Paper_instance.system ()
let bits = Int64.bits_of_float
let count n = Int64.of_int n

let result_bits (r : Power_sim.result) =
  let scalars =
    [
      bits r.duration;
      count r.generated;
      count r.accepted;
      count r.lost;
      count r.completed;
      bits r.avg_power;
      bits r.avg_waiting_requests;
      bits r.avg_waiting_time;
      bits r.waiting_time_stderr;
      bits r.loss_probability;
      count r.controller_decisions;
      count r.switch_count;
      bits r.switch_energy;
    ]
  in
  let residency = Array.to_list (Array.map bits r.mode_residency) in
  let segments =
    List.concat_map
      (fun (g : Power_sim.segment) ->
        [
          bits g.seg_start;
          bits g.seg_end;
          bits g.seg_power;
          bits g.seg_waiting_requests;
          bits g.seg_waiting_time;
          count g.seg_generated;
          count g.seg_lost;
          count g.seg_completed;
          count g.seg_switches;
        ])
      (Array.to_list r.segments)
  in
  scalars @ residency @ segments

let poisson s = Workload.poisson ~rate:(Sys_model.arrival_rate s)

(* Quiet after t = 900: the stream ends once the clock passes the
   last boundary. *)
let piecewise_quiet_tail () =
  Workload.piecewise
    ~segments:[ (300.0, 0.25); (600.0, 0.05); (900.0, 0.4) ]
    ~final_rate:0.0

let piecewise_busy_tail () =
  Workload.piecewise ~segments:[ (400.0, 0.1); (800.0, 0.0) ] ~final_rate:0.3

let mmpp () =
  Workload.mmpp ~rates:[| 0.05; 0.5 |]
    ~switch_rate:[| [| 0.0; 0.01 |]; [| 0.02; 0.0 |] |]

(* Dyadic instants so that timer chains built by repeated addition
   land on them exactly. *)
let tie_trace () =
  Workload.trace
    [ 0.25; 0.75; 1.0; 1.5; 1.75; 2.0; 3.0; 4.0; 4.5; 6.0; 8.0; 8.25; 9.5; 12.0 ]

(* Sparse enough that the system is often empty at a tie, so which of
   a timer and an arrival at one instant fires first changes the
   result. *)
let sparse_trace () =
  Workload.trace [ 1.0; 4.75; 5.0; 9.0; 13.0; 13.25; 14.0; 17.5; 18.0 ]

(* Pairs a quarter period apart, the second on a timer instant pushed
   before it: the timer fires first and sees one request, not two. *)
let pairs_trace () = Workload.trace [ 4.75; 5.0; 12.75; 13.0; 20.75; 21.0 ]

let on_demand ~mode:_ ~queue =
  if queue > 0 then Paper_instance.active else Paper_instance.sleeping

let on_second ~mode:_ ~queue =
  if queue >= 2 then Paper_instance.active else Paper_instance.sleeping

let run ?(seed = 7L) ?segments ?decision_energy s ~workload ~controller ~stop =
  Power_sim.run ~seed ?segments ?decision_energy ~sys:s ~workload ~controller
    ~stop ()

(* Greedy, except that a timer every 0.13 s answers every other pending
   switch with a "stay" command, which cancels it. *)
let stay_canceller s cancels =
  let g = Controller.greedy s in
  let ticks = ref 0 in
  let decide (obs : Controller.observation) reason =
    match reason with
    | Controller.Timer ->
        incr ticks;
        if obs.switching_to <> None && !ticks mod 2 = 0 then begin
          incr cancels;
          { Controller.target = Some obs.mode; timer = Some 0.13 }
        end
        else { (g.decide obs reason) with timer = Some 0.13 }
    | Controller.Init -> { (g.decide obs reason) with timer = Some 0.13 }
    | _ -> g.decide obs reason
  in
  { Controller.name = "stay-canceller"; decide }

let time_policy s =
  let greedy = Policies.greedy s and n3 = Policies.n_policy s ~n:3 in
  Controller.of_time_policy s ~wake:[ 2.0; 4.0; 8.0; 40.0 ]
    ~policy:(fun t x ->
      if t < 4.0 || t >= 40.0 then greedy x else n3 x)

let cases =
  let s = sys () in
  [
    ( "always-on/poisson/requests",
      fun () ->
        run s ~workload:(poisson s) ~controller:(Controller.always_on s)
          ~stop:(Power_sim.Requests 3000) );
    ( "stationary/mmpp/time",
      fun () ->
        run s ~segments:[ 500.0; 1500.0; 5000.0 ] ~workload:(mmpp ())
          ~controller:(Controller.of_solution s (Optimize.solve ~weight:1.0 s))
          ~stop:(Power_sim.Sim_time 3000.0) );
    ( "greedy/piecewise-quiet/time",
      fun () ->
        run s ~segments:[ 300.0; 900.0 ] ~workload:(piecewise_quiet_tail ())
          ~controller:(Controller.greedy s) ~stop:(Power_sim.Sim_time 2000.0) );
    ( "greedy/piecewise-quiet/requests",
      fun () ->
        run s ~workload:(piecewise_quiet_tail ())
          ~controller:(Controller.greedy s) ~stop:(Power_sim.Requests 100_000) );
    ( "n-policy/poisson/time",
      fun () ->
        run s ~decision_energy:0.01 ~workload:(poisson s)
          ~controller:(Controller.n_policy s ~n:3)
          ~stop:(Power_sim.Sim_time 5000.0) );
    ( "timeout-0.7/poisson/requests",
      fun () ->
        run s ~workload:(poisson s)
          ~controller:(Controller.timeout s ~delay:0.7)
          ~stop:(Power_sim.Requests 2000) );
    ( "timeout-0/mmpp/requests",
      fun () ->
        run s ~workload:(mmpp ()) ~controller:(Controller.timeout s ~delay:0.0)
          ~stop:(Power_sim.Requests 1500) );
    ( "timeout-0.7/trace/time",
      fun () ->
        run s ~workload:(tie_trace ())
          ~controller:(Controller.timeout s ~delay:0.7)
          ~stop:(Power_sim.Sim_time 20.0) );
    ( "periodic/trace/time",
      fun () ->
        run s ~workload:(tie_trace ())
          ~controller:(Controller.periodic ~period:0.5 ~decide:on_demand)
          ~stop:(Power_sim.Sim_time 15.0) );
    ( "periodic/sparse-trace/time",
      fun () ->
        run s ~workload:(sparse_trace ())
          ~controller:(Controller.periodic ~period:0.5 ~decide:on_demand)
          ~stop:(Power_sim.Sim_time 25.0) );
    ( "periodic-2/pairs-trace/time",
      fun () ->
        run s ~workload:(pairs_trace ())
          ~controller:(Controller.periodic ~period:0.5 ~decide:on_second)
          ~stop:(Power_sim.Sim_time 25.0) );
    ( "periodic/poisson/time",
      fun () ->
        run s ~segments:[ 100.0; 200.0 ] ~workload:(poisson s)
          ~controller:
            (Controller.periodic ~period:2.0 ~decide:(fun ~mode ~queue ->
                 if queue >= 2 then Paper_instance.active
                 else if queue = 0 then Paper_instance.sleeping
                 else mode))
          ~stop:(Power_sim.Sim_time 1000.0) );
    ( "time-shared/piecewise-busy/requests",
      fun () ->
        run s ~workload:(piecewise_busy_tail ())
          ~controller:
            (Controller.time_shared ~period:30.0 ~fraction:0.3
               (Controller.greedy s) (Controller.n_policy s ~n:2))
          ~stop:(Power_sim.Requests 1500) );
    ( "time-policy/trace/time",
      fun () ->
        run s ~segments:[ 4.0; 8.0 ] ~workload:(tie_trace ())
          ~controller:(time_policy s) ~stop:(Power_sim.Sim_time 60.0) );
    ( "time-policy/poisson/requests",
      fun () ->
        run s ~workload:(poisson s) ~controller:(time_policy s)
          ~stop:(Power_sim.Requests 500) );
    ( "greedy/trace/requests",
      fun () ->
        run s ~workload:(tie_trace ()) ~controller:(Controller.greedy s)
          ~stop:(Power_sim.Requests 1000) );
    ( "stay-canceller/poisson/requests",
      fun () ->
        run s ~workload:(poisson s)
          ~controller:(stay_canceller s (ref 0))
          ~stop:(Power_sim.Requests 800) );
  ]

module Fleet_sim = Dpm_fleet.Fleet_sim
module Spec = Dpm_fleet.Spec

let fleet_bits () =
  let sp () = Paper_instance.service_provider () in
  let spec =
    Spec.create ~weight:1.0 ~boot_rate:0.5 ~boot_energy:20.0
      ~shutdown_rate:1.0 ~shutdown_energy:5.0
      [
        Spec.group ~name:"a" ~sp:(sp ()) ~queue_capacity:3 ~count:2
          ~off_power:0.1 ();
        Spec.group ~name:"b" ~sp:(sp ()) ~queue_capacity:5 ~count:1
          ~off_power:0.1 ~routing_weight:2.0 ();
      ]
  in
  let r =
    Dpm_cache.Solve_cache.with_capacity 128 (fun () ->
        Fleet_sim.run ~domains:1 ~seed:7L spec
          ~segments:[ (60.0, 0.9); (140.0, 0.3) ]
          ~final_rate:0.6 ~horizon:240.0)
  in
  [
    count r.Fleet_sim.events;
    bits r.Fleet_sim.server_energy_j;
    bits r.Fleet_sim.off_energy_j;
    bits r.Fleet_sim.cluster_energy_j;
    bits r.Fleet_sim.avg_power_w;
    bits r.Fleet_sim.avg_waiting_time_s;
  ]

(* PINS *)
let pins =
  [
    ( "always-on/poisson/requests",
      [
        0x40d218880276a80fL; 0xbb8L; 0xbb8L;
        0x0L; 0xbb7L; 0x4044000000000000L;
        0x3fd4716601d95e6cL; 0x3fff93fd1bea0497L; 0x3fa19e66899024f3L;
        0x0L; 0x1770L; 0x0L;
        0x0L; 0x3ff0000000000000L; 0x0L;
        0x0L;
      ] );
    ( "stationary/mmpp/time",
      [
        0x40a7700000000000L; 0x226L; 0x1f6L;
        0x30L; 0x1f4L; 0x4025671eefab8ae8L;
        0x3ff19ca6b3f0639dL; 0x401a56fc73316337L; 0x3fd618927b818822L;
        0x3fb6578165781658L; 0x544L; 0x129L;
        0x40917accccccccd9L; 0x3fd05572dd7f3644L; 0x3f68f80414276bdaL;
        0x3fe7bc4e8d2c3d72L; 0x0L; 0x407f400000000000L;
        0x4021e85c206453c9L; 0x3fe5e06bd5824c10L; 0x4017fcd010494170L;
        0x40L; 0x7L; 0x39L;
        0x20L; 0x407f400000000000L; 0x4097700000000000L;
        0x4020343738b054e0L; 0x3feecf087c08cfe9L; 0x401c33afc79ab30dL;
        0x95L; 0xbL; 0x88L;
        0x5eL; 0x4097700000000000L; 0x40a7700000000000L;
        0x402a08a504156bf8L; 0x3ff54ee3459d753fL; 0x4019f39d10f1cb8bL;
        0x151L; 0x1eL; 0x133L;
        0xabL; 0x40a7700000000000L; 0x40a7700000000000L;
        0x0L; 0x0L; 0x0L;
        0x0L; 0x0L; 0x0L;
        0x0L;
      ] );
    ( "greedy/piecewise-quiet/time",
      [
        0x408c24b2b3f0b5c5L; 0xc7L; 0xc7L;
        0x0L; 0xc7L; 0x402cbb1d47181ae8L;
        0x3fe5d13e57b0e063L; 0x4008af182b0c9177L; 0x3fc3f6ae63fa8bf5L;
        0x0L; 0x250L; 0xc1L;
        0x4091420000000000L; 0x3fd4ea2cab5584e7L; 0x0L;
        0x3fe58ae9aa553d8dL; 0x0L; 0x4072c00000000000L;
        0x40309cde4e219677L; 0x3fec651be2633f14L; 0x400af50d82abfe50L;
        0x4fL; 0x0L; 0x4fL;
        0x53L; 0x4072c00000000000L; 0x408c200000000000L;
        0x402a6e87c5cb8bb9L; 0x3fe28cc707108b48L; 0x40072ff8c8d4ae1aL;
        0x78L; 0x0L; 0x78L;
        0x6dL; 0x408c200000000000L; 0x408c24b2b3f0b5c5L;
        0x40446cfb2faf3bb3L; 0x0L; 0x0L;
        0x0L; 0x0L; 0x0L;
        0x1L;
      ] );
    ( "greedy/piecewise-quiet/requests",
      [
        0x408c24b2b3f0b5c5L; 0xc7L; 0xc7L;
        0x0L; 0xc7L; 0x402cbb1d47181ae8L;
        0x3fe5d13e57b0e063L; 0x4008af182b0c9177L; 0x3fc3f6ae63fa8bf5L;
        0x0L; 0x250L; 0xc1L;
        0x4091420000000000L; 0x3fd4ea2cab5584e7L; 0x0L;
        0x3fe58ae9aa553d8dL;
      ] );
    ( "n-policy/poisson/time",
      [
        0x40b3880000000000L; 0x318L; 0x314L;
        0x4L; 0x312L; 0x4024ea51d24cf36dL;
        0x3ff6c80495d98799L; 0x40220b14500395a3L; 0x3fd0797c2b5bccc7L;
        0x3f74afd6a052bf5bL; 0x7aeL; 0x183L;
        0x40a1580000000000L; 0x3fcfca643748a3caL; 0x0L;
        0x3fe80d66f22dd70eL;
      ] );
    ( "timeout-0.7/poisson/requests",
      [
        0x40c84c6c6840c5a7L; 0x7d0L; 0x7d0L;
        0x0L; 0x7cfL; 0x402d11307e83ebbaL;
        0x3fdef846adcec96fL; 0x400817bcfa8a9327L; 0x3fa974552fefbc10L;
        0x0L; 0x1d98L; 0x8e9L;
        0x40c99b4000000000L; 0x3fd57614478610a3L; 0x0L;
        0x3fe544f5dc3cf7afL;
      ] );
    ( "timeout-0/mmpp/requests",
      [
        0x40be462cc413e8ceL; 0x5dcL; 0x57eL;
        0x5eL; 0x579L; 0x4028be538843393cL;
        0x3fe76d2229b69160L; 0x4010226a48a239b8L; 0x3fb498c71da75dd1L;
        0x3fb00aec33e1f671L; 0x116cL; 0x3feL;
        0x40b6f48000000000L; 0x3fd277beb21917d7L; 0x0L;
        0x3fe6c420a6f37414L;
      ] );
    ( "timeout-0.7/trace/time",
      [
        0x402f6cfa43713f6fL; 0xeL; 0xbL;
        0x3L; 0xbL; 0x40440412b6b22f31L;
        0x40068ce424beb8eeL; 0x40101b1dbb816a0cL; 0x3fe1887416c443e3L;
        0x3fcb6db6db6db6dbL; 0x1dL; 0x1L;
        0x3fe0000000000000L; 0x3ff0000000000000L; 0x0L;
        0x0L;
      ] );
    ( "periodic/trace/time",
      [
        0x402e000000000000L; 0xeL; 0xbL;
        0x3L; 0xbL; 0x4044000000000000L;
        0x40079f3cac9bac99L; 0x40101b1dbb816a0cL; 0x3fe1887416c443e3L;
        0x3fcb6db6db6db6dbL; 0x38L; 0x0L;
        0x0L; 0x3ff0000000000000L; 0x0L;
        0x0L;
      ] );
    ( "periodic/sparse-trace/time",
      [
        0x4039000000000000L; 0x9L; 0x9L;
        0x0L; 0x9L; 0x403901f057f06e0cL;
        0x3ff11752d7d10c16L; 0x4007bcd69d85e61eL; 0x3fe8ef2be9968738L;
        0x0L; 0x4cL; 0x7L;
        0x4041800000000000L; 0x3fe2da6ac821b54aL; 0x0L;
        0x3fda4b2a6fbc956dL;
      ] );
    ( "periodic-2/pairs-trace/time",
      [
        0x4039000000000000L; 0x6L; 0x6L;
        0x0L; 0x6L; 0x4031d358caa08ed0L;
        0x3fedf25848735813L; 0x400f31c6a0cd7bbfL; 0x3fedd6148da7b58dL;
        0x0L; 0x46L; 0x7L;
        0x4041800000000000L; 0x3fda2fb6d7f17f0eL; 0x0L;
        0x3fe2e82494074079L;
      ] );
    ( "periodic/poisson/time",
      [
        0x408f400000000000L; 0xabL; 0xaaL;
        0x1L; 0xa9L; 0x4028e2456b8db94aL;
        0x3ff020b13aa2958cL; 0x40178757f2a95d51L; 0x3fd63672c228b3b9L;
        0x3f77f405fd017f40L; 0x3b4L; 0x6bL;
        0x4083100000000000L; 0x3fd2d171cdfb59f4L; 0x0L;
        0x3fe6974719025306L; 0x0L; 0x4059000000000000L;
        0x40304fede694c00bL; 0x3ff2b7bdb20737dbL; 0x4017eac9f13637f1L;
        0x14L; 0x0L; 0x13L;
        0xaL; 0x4059000000000000L; 0x4069000000000000L;
        0x40214dcfe991f8ffL; 0x3fed2ee63aee9064L; 0x401a8806eb0b8daeL;
        0xeL; 0x0L; 0xeL;
        0x9L; 0x4069000000000000L; 0x408f400000000000L;
        0x4028dd214f99b87aL; 0x3feffdeedeb6d5dcL; 0x40172a523ef139c9L;
        0x89L; 0x1L; 0x88L;
        0x58L;
      ] );
    ( "time-shared/piecewise-busy/requests",
      [
        0x40b68f9fdc1f234cL; 0x5dcL; 0x5bcL;
        0x20L; 0x5b7L; 0x403125869931812eL;
        0x3ff387f2c09685b4L; 0x401339b511fa55f0L; 0x3fb60a6aeedc3748L;
        0x3f95d867c3ece2a5L; 0x107fL; 0x36aL;
        0x40b3a18000000000L; 0x3fd9f27c3ecd1597L; 0x0L;
        0x3fe306c1e0997535L;
      ] );
    ( "time-policy/trace/time",
      [
        0x4044000000000000L; 0xeL; 0xbL;
        0x3L; 0xbL; 0x402e2cf60dc50f8aL;
        0x3ff1b76d8174c172L; 0x40101b1dbb816a0cL; 0x3fe1887416c443e3L;
        0x3fcb6db6db6db6dbL; 0x1fL; 0x1L;
        0x3fe0000000000000L; 0x3fd80543173be0d4L; 0x0L;
        0x3fe3fd5e74620f96L; 0x0L; 0x4010000000000000L;
        0x4044000000000000L; 0x4009c6f7da908882L; 0x3ff91bdf6a422208L;
        0x7L; 0x1L; 0x2L;
        0x0L; 0x4010000000000000L; 0x4020000000000000L;
        0x4044000000000000L; 0x4010928a253b68d1L; 0x4015c362dc4f366dL;
        0x3L; 0x2L; 0x3L;
        0x0L; 0x4020000000000000L; 0x4044000000000000L;
        0x4021b8339136536cL; 0x3fdda91762406d18L; 0x40108db2761579b3L;
        0x4L; 0x0L; 0x6L;
        0x1L;
      ] );
    ( "time-policy/poisson/requests",
      [
        0x40a8050232ebf6f9L; 0x1f4L; 0x1f4L;
        0x0L; 0x1f3L; 0x4027628d008e07c3L;
        0x3fde965e8f3b8347L; 0x40078eaffc2c8e68L; 0x3fb836a8d67cd254L;
        0x0L; 0x665L; 0x279L;
        0x40ac650000000000L; 0x3fd0b2c32393e56bL; 0x0L;
        0x3fe7a69e6e360d4bL;
      ] );
    ( "greedy/trace/requests",
      [
        0x402dd36b4de91d9eL; 0xeL; 0xbL;
        0x3L; 0xbL; 0x4044044aa4e1f2b5L;
        0x4007c28b81c0c524L; 0x40101b1dbb816a0cL; 0x3fe1887416c443e3L;
        0x3fcb6db6db6db6dbL; 0x1bL; 0x1L;
        0x3fe0000000000000L; 0x3ff0000000000000L; 0x0L;
        0x0L;
      ] );
    ( "stay-canceller/poisson/requests",
      [
        0x40b3b5c18028d92fL; 0x320L; 0x320L;
        0x0L; 0x31eL; 0x4028048fe0485c43L;
        0x3fe3eb6437284d82L; 0x400f6bf66b76798aL; 0x3fb8f7f8f4941f64L;
        0x0L; 0xa124L; 0x348L;
        0x40b2de0000000000L; 0x3fd1910bf2b29acdL; 0x0L;
        0x3fe7377a06a6b299L;
      ] );
  ]

(* events, server / off / cluster energy, average power, average
   waiting time *)
let fleet_pin =
  [ 0x162L; 0x40b08935b1eee5a6L; 0x4048000000000000L;
    0x0L; 0x4031d69facba8e8fL; 0x40260363128d4de1L ]

let t = Alcotest.test_case

let check_pin name expected actual =
  Alcotest.(check int)
    (name ^ ": field count")
    (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if not (Int64.equal e a) then
        Alcotest.failf "%s: field %d is 0x%Lx, pinned 0x%Lx" name i a e)
    (List.combine expected actual)

let pin_case name run () =
  check_pin name (List.assoc name pins) (result_bits (run ()))

(* The stay-canceller case only pins cancellation if a "stay" really
   lands on a pending switch: watch the switch clear on a timer. *)
let stay_cancels_switch () =
  let s = sys () in
  let cancels = ref 0 and cleared = ref 0 and pending = ref false in
  let observer (sn : Power_sim.snapshot) =
    if !pending && sn.snap_event = "timer" && sn.snap_switching_to = None then
      incr cleared;
    pending := sn.snap_switching_to <> None
  in
  ignore
    (Power_sim.run ~seed:7L ~observer ~sys:s ~workload:(poisson s)
       ~controller:(stay_canceller s cancels) ~stop:(Power_sim.Requests 800) ());
  Alcotest.(check bool) "stay commands issued" true (!cancels > 0);
  Alcotest.(check int) "every stay cleared its switch" !cancels !cleared

let fleet_run_pinned () = check_pin "fleet" fleet_pin (fleet_bits ())

let suite =
  List.map (fun (name, run) -> t name `Quick (pin_case name run)) cases
  @ [
      t "stay cancels a pending switch" `Quick stay_cancels_switch;
      t "fleet run" `Quick fleet_run_pinned;
    ]
