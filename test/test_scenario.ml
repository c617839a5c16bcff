(* The experiment scenarios the bench and the CLI share (Scenario.Failover,
   Flow, Sched, Coll, Heal), each on its smallest grid, checked for the
   shape its bench asserts. *)

module Time = Engine.Time
module Plan = Padico_fault.Plan
module Group = Collectives.Group

let seed = Scenario.seed

let test_failover () =
  let total = 1_000_000 in
  let r =
    Scenario.Failover.echo ~seed
      ~plan:[ { Plan.at_ns = Time.ms 2; action = Plan.Link_down "san" } ]
      ~total ~chunk:65_536
  in
  Tutil.check_int "full echo" total r.received;
  Tutil.check_bool "failed over" true (r.stats.Resilient.switches >= 1);
  Tutil.check_string "on the LAN" "sysio" r.stats.Resilient.driver

let test_flow_bounded () =
  let rx_high = 256 * 1024 and chunk = 16_384 in
  let config =
    { Resilient.default_config with rx_high; rx_low = rx_high / 4 }
  in
  let r =
    Scenario.Flow.slow_consumer ~seed ~backend:Padico.Sim ~config
      ~credit_window:131_072 ~plan:[] ~total:1_000_000 ~chunk
      ~delay_ns:(Time.us 6_500)
  in
  let peak = r.stats.Resilient.rx_peak in
  Tutil.check_bool
    (Printf.sprintf "rx peak %d within a frame of the %d watermark" peak
       rx_high)
    true
    (peak >= rx_high - chunk && peak <= rx_high + 65_536)

let test_sched_aggregation () =
  let burst agg_budget_ns =
    Scenario.Sched.burst ~seed ~policy:Netaccess.Na_core.default_policy
      ~agg_budget_ns ~count:200
  in
  let off = burst None and on = burst (Some Calib.madio_agg_budget_ns) in
  Tutil.check_int "same payload delivered" off.checksum on.checksum;
  Tutil.check_bool "aggregated burst is faster" true
    (on.elapsed_ns < off.elapsed_ns)

let test_coll_multilevel () =
  let run strategy =
    match
      (Scenario.Coll.run ~seed ~clusters:2 ~nodes_per_cluster:2 ~payload:4096
         ~chunk:64 ~ops:[ Scenario.Coll.Bcast ] strategy)
        .ops
    with
    | [ (_, m) ] -> m
    | _ -> Alcotest.fail "one measurement per op"
  in
  let flat = run Group.Flat and ml = run Group.Multilevel in
  Tutil.check_int "same payload delivered" flat.sum ml.sum;
  Tutil.check_bool
    (Printf.sprintf "multilevel crosses the WAN less (%d < %d)" ml.msgs
       flat.msgs)
    true (ml.msgs < flat.msgs)

let test_heal_allreduce () =
  let g =
    Scenario.Gridgen.generate ~seed ~clusters:2 ~nodes_per_cluster:2 ()
  in
  let victim = 3 in
  let crash_at = Time.ms 30 in
  let r =
    Scenario.Heal.crash g ~label:"test" ~victim ~interval_ns:(Time.ms 1)
      ~crash_at ~deadline_ns:(Time.ms 400) ~until:(crash_at + Time.ms 400)
  in
  List.iter (fun (rank, how) -> Alcotest.failf "rank %d %s" rank how)
    r.unfinished;
  Tutil.check_bool "every survivor got the survivors' XOR" true
    (r.diverged = []);
  Tutil.check_int "epoch" 1 (Group.epoch r.groups.(0));
  Tutil.check_bool "dead" true (Group.dead_ranks r.groups.(0) = [ victim ])

let () =
  Alcotest.run "scenario"
    [ ( "shared",
        [ Alcotest.test_case "failover: switches, full echo" `Quick
            test_failover;
          Alcotest.test_case "flow: bounded rx peak at the watermark" `Quick
            test_flow_bounded;
          Alcotest.test_case "sched: aggregation beats no aggregation"
            `Quick test_sched_aggregation;
          Alcotest.test_case "collect: multilevel bcast crosses less WAN"
            `Quick test_coll_multilevel;
          Alcotest.test_case "detect: healed allreduce is exact" `Quick
            test_heal_allreduce ] ) ]
