(* Flow — E11: end-to-end flow control and overload protection.

   A fast producer streams into a consumer that drains two orders of
   magnitude slower (the 100:1 mismatch that, without flow control, turns
   every queue in the stack into an unbounded buffer). Three runs:

   1. unbounded: watermarks and windows disabled — the receive queue
      absorbs nearly the whole transfer (memory grows with the mismatch);
   2. bounded: default Resilient windows + a MadIO credit window — peak
      queued bytes stay pinned near the configured watermark while
      goodput is unchanged (the consumer was the bottleneck all along);
   3. bounded + fault: same flow-control settings composed with the E10
      SAN-kill plan — failover still completes, no credit/window
      deadlock across the adapter switch.

   All numbers are virtual-time and deterministic. Recorded in
   EXPERIMENTS.md (experiment E11). Under --backend host the same three
   runs execute over real Unix sockets (MadIO credits do not exist there —
   the SAN pair rides SysIO streams, so only the Resilient windows bound
   the queue) and the wall-clock metrics land under e11_host.* keys. *)

module Time = Engine.Time
module Plan = Padico_fault.Plan

let total = 4_000_000

let chunk = 16_384

(* Consumer pace: Myrinet-2000 moves ~250 MB/s, so reading one chunk per
   ~6.5 ms is a ~100:1 producer/consumer mismatch. *)
let consumer_delay_ns = Time.us 6_500

let credit_window = 131_072

(* Windows and watermarks off: the receive queue absorbs whatever the
   consumer has not read yet. *)
let unbounded =
  { Resilient.default_config with
    tx_window = max_int; rx_high = max_int; rx_low = max_int }

(* One slow-consumer transfer; returns (goodput MB/s, consumer-side
   stats, producer-side MadIO credit stalls). *)
let slow_consumer ~bounded ~plan =
  let r =
    Scenario.Flow.slow_consumer ~seed:Bhelp.seed ~backend:!Bhelp.backend
      ~config:(if bounded then Resilient.default_config else unbounded)
      ~credit_window:(if bounded then credit_window else 0)
      ~plan ~total ~chunk ~delay_ns:consumer_delay_ns
  in
  (r.goodput_mb_s, r.stats, r.credit_stalls)

let run () =
  let host = !Bhelp.backend = Padico.Host in
  Bhelp.print_header
    (if host then
       "E11 — flow control and overload protection (host backend, \
        wall-clock)"
     else "E11 — flow control and overload protection");
  let rec_ =
    Bhelp.record ~experiment:(if host then "e11_host" else "e11")
  in

  let un_bw, un_st, _ = slow_consumer ~bounded:false ~plan:[] in
  Printf.printf "%-42s %10.2f MB/s  (rx peak %d bytes)\n"
    "4 MB @ 100:1 mismatch, unbounded" un_bw un_st.Resilient.rx_peak;
  rec_ "unbounded_goodput_mb_s" un_bw;
  rec_ "unbounded_rx_peak_bytes" (float_of_int un_st.Resilient.rx_peak);

  let bo_bw, bo_st, bo_stalls = slow_consumer ~bounded:true ~plan:[] in
  Printf.printf "%-42s %10.2f MB/s  (rx peak %d bytes)\n"
    "4 MB @ 100:1 mismatch, bounded" bo_bw bo_st.Resilient.rx_peak;
  Printf.printf "%-42s %10d\n" "  MadIO credit stalls (producer)" bo_stalls;
  rec_ "bounded_goodput_mb_s" bo_bw;
  rec_ "bounded_rx_peak_bytes" (float_of_int bo_st.Resilient.rx_peak);
  rec_ "bounded_credit_stalls" (float_of_int bo_stalls);
  rec_ "goodput_ratio" (bo_bw /. un_bw);

  let rx_high = Resilient.default_config.Resilient.rx_high in
  let slack = 65_536 (* one in-flight frame may land past the watermark *) in
  if bo_st.Resilient.rx_peak > rx_high + slack then
    Printf.printf
      "WARNING: bounded rx peak %d exceeds watermark %d (+%d slack)\n"
      bo_st.Resilient.rx_peak rx_high slack;
  if bo_bw < 0.95 *. un_bw then
    print_endline "WARNING: flow control cost more than 5% goodput!";

  (* 5 ms after establishment is mid-stream on both backends: the plan is
     anchored by the establishment hook, so the real-socket handshake's
     wall-clock cost no longer races the fault. *)
  let fault_at = Time.ms 5 in
  let plan = [ { Plan.at_ns = fault_at; action = Plan.Link_down "san" } ] in
  let fc_bw, fc_st, _ = slow_consumer ~bounded:true ~plan in
  Printf.printf "%-42s %10.2f MB/s  (switches %d, rx peak %d)\n"
    (Printf.sprintf "bounded + SAN down at +%d ms" (fault_at / 1_000_000))
    fc_bw fc_st.Resilient.switches
    fc_st.Resilient.rx_peak;
  rec_ "fault_goodput_mb_s" fc_bw;
  rec_ "fault_switches" (float_of_int fc_st.Resilient.switches);
  rec_ "fault_rx_peak_bytes" (float_of_int fc_st.Resilient.rx_peak);
  if fc_st.Resilient.switches < 1 then
    print_endline "WARNING: no failover happened — check the plan!"
