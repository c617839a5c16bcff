(* Fault — E10: fault injection and failover resilience.

   Two measurements:
   1. loss-burst degradation: one-way Vio latency over the VTHD WAN, clean
      versus with an injected loss burst covering the measured window — the
      cost of riding TCP retransmissions through a lossy episode;
   2. failover: a resilient echo transfer on a Myrinet-SAN + Fast-Ethernet
      pair with the SAN killed mid-transfer. Reported: adapter switches,
      reconnect attempts, virtual downtime, and goodput versus the clean
      run and versus a LAN-only baseline (the floor once failed over).

   All numbers are virtual-time; same seed and plan replay identically.
   Numbers are recorded in EXPERIMENTS.md (experiment E10). *)

module Time = Engine.Time
module Plan = Padico_fault.Plan
module Inject = Padico_fault.Inject

let lat_iters = 100

let wan_latency ~loss_burst () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.vthd ~name:"wan" [ a; b ]);
  if loss_burst then
    ignore
      (Inject.apply (Padico.net grid)
         [ { Plan.at_ns = Time.ms 1;
             action =
               Plan.Loss_burst
                 { link = "wan"; loss = 0.02; duration_ns = Time.sec 30 } } ]);
  Bhelp.vio_latency grid ~src:a ~dst:b ~port:4000 ~size:4 ~iters:lat_iters

let total = 8_000_000

let chunk = 65_536

(* Resilient round-trip echo of [total] bytes under [plan]; returns
   (goodput MB/s counting both directions, failover stats). *)
let resilient_echo ~plan =
  let r = Scenario.Failover.echo ~seed:Bhelp.seed ~plan ~total ~chunk in
  if r.received < total then
    failwith (Printf.sprintf "incomplete: %d/%d bytes" r.received total);
  (r.goodput_mb_s, r.stats)

(* The post-failover floor: the same transfer with only the LAN. *)
let lan_only_goodput () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore
    (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]);
  let bw =
    Bhelp.vio_stream_bw grid ~src:a ~dst:b ~port:5000 ~total ~chunk
  in
  bw

let run () =
  Bhelp.print_header "E10 — fault injection and failover resilience";
  let rec_ = Bhelp.record ~experiment:"e10" in

  let clean_lat = wan_latency ~loss_burst:false () in
  let burst_lat = wan_latency ~loss_burst:true () in
  Printf.printf "%-42s %10.2f us\n" "vio/VTHD latency, clean" clean_lat;
  Printf.printf "%-42s %10.2f us   (x%.2f)\n"
    "vio/VTHD latency, 2% loss burst" burst_lat (burst_lat /. clean_lat);
  rec_ "wan_latency_clean_us" clean_lat;
  rec_ "wan_latency_lossburst_us" burst_lat;

  let clean_bw, clean_st = resilient_echo ~plan:[] in
  Printf.printf "%-42s %10.2f MB/s  (driver %s)\n"
    "resilient echo 8 MB, no faults" clean_bw clean_st.Resilient.driver;
  rec_ "clean_goodput_mb_s" clean_bw;

  let failover_plan =
    [ { Plan.at_ns = Time.ms 5; action = Plan.Link_down "san" } ]
  in
  let fo_bw, fo_st = resilient_echo ~plan:failover_plan in
  Printf.printf "%-42s %10.2f MB/s  (driver %s)\n"
    "resilient echo 8 MB, SAN down at 5 ms" fo_bw fo_st.Resilient.driver;
  Printf.printf "%-42s %10d\n" "  adapter switches" fo_st.Resilient.switches;
  Printf.printf "%-42s %10d\n" "  reconnect attempts" fo_st.Resilient.retries;
  Printf.printf "%-42s %10.3f ms\n" "  downtime (virtual)"
    (float_of_int fo_st.Resilient.downtime_ns /. 1e6);
  rec_ "failover_goodput_mb_s" fo_bw;
  rec_ "failover_switches" (float_of_int fo_st.Resilient.switches);
  rec_ "failover_retries" (float_of_int fo_st.Resilient.retries);
  rec_ "failover_downtime_ms"
    (float_of_int fo_st.Resilient.downtime_ns /. 1e6);

  let lan_bw = lan_only_goodput () in
  Printf.printf "%-42s %10.2f MB/s  (one-way floor)\n"
    "LAN-only baseline (Fast Ethernet)" lan_bw;
  rec_ "lan_only_bw_mb_s" lan_bw;

  if fo_st.Resilient.switches < 1 then
    print_endline "WARNING: no failover happened — check the plan!"
