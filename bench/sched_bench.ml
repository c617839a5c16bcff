(* Experiment E12 — scheduling & aggregation:

   (a) small-message throughput, aggregation off vs on (the headline:
       >= 2x messages/s for 64 B bursts at equal goodput);
   (b) the latency/throughput Pareto front as the coalescing budget
       sweeps from 0 (off) to 50 us — burst rate and the worst-case
       latency a lone message pays waiting out the budget;
   (c) adaptive arbitration: a MadIO-only workload next to one
       watched-but-silent SysIO socket — charged idle polls under the
       eager adaptive scheduler vs exponential backoff (>= 5x fewer),
       with the static policy as the no-model baseline. *)

module Na = Netaccess.Na_core
module Sched = Scenario.Sched

let burst_count = 2_000

let pingpong_iters = 300

(* One-way burst: virtual ns from first send to last delivery, payload
   checksum (goodput witness), Madeleine packets saved by coalescing. *)
let burst agg_budget_ns =
  let r =
    Sched.burst ~seed:Bhelp.seed ~policy:Na.default_policy ~agg_budget_ns
      ~count:burst_count
  in
  (r.elapsed_ns, r.checksum, Netaccess.Madio.packets_saved r.sender)

let rate_msg_s ns = float_of_int burst_count /. (float_of_int ns *. 1e-9)

(* Part (c): the sender's charged idle SysIO polls and the ping-pong
   completion time under [policy]. *)
let polling policy =
  let r = Sched.polling ~seed:Bhelp.seed ~policy ~iters:pingpong_iters in
  (r.idle_polls, r.pp_ns)

let run () =
  let rec_ = Bhelp.record ~experiment:"e12" in
  Bhelp.print_header
    "E12 - scheduling & aggregation (64 B messages, Myrinet)";
  (* (a) headline throughput *)
  let t_off, sum_off, _ = burst None in
  let t_on, sum_on, saved = burst (Some Calib.madio_agg_budget_ns) in
  if sum_off <> sum_on then failwith "e12: goodput mismatch";
  let r_off = rate_msg_s t_off and r_on = rate_msg_s t_on in
  let speedup = r_on /. r_off in
  Printf.printf
    "(a) %d x %d B burst: %.2f Mmsg/s off -> %.2f Mmsg/s on (%.1fx, %d packets saved)\n"
    burst_count Sched.msg_size (r_off /. 1e6) (r_on /. 1e6) speedup saved;
  flush stdout;
  rec_ "rate_agg_off_msg_s" r_off;
  rec_ "rate_agg_on_msg_s" r_on;
  rec_ "agg_speedup" speedup;
  rec_ "agg_packets_saved" (float_of_int saved);
  (* (b) Pareto sweep over the coalescing budget *)
  print_endline
    "(b) latency/throughput Pareto (budget ; burst rate ; lone-message latency):";
  let lat_off = Sched.lone_latency ~agg_budget_ns:None in
  Printf.printf "    %-10s %8.2f Mmsg/s   %6d ns\n" "off"
    (rate_msg_s t_off /. 1e6) lat_off;
  rec_ "lone_latency_off_ns" (float_of_int lat_off);
  List.iter
    (fun budget_ns ->
       let t, _, _ = burst (Some budget_ns) in
       let lat = Sched.lone_latency ~agg_budget_ns:(Some budget_ns) in
       Printf.printf "    %-10s %8.2f Mmsg/s   %6d ns\n"
         (Printf.sprintf "%d ns" budget_ns)
         (rate_msg_s t /. 1e6) lat;
       flush stdout;
       rec_ (Printf.sprintf "agg_rate_b%d_msg_s" budget_ns) (rate_msg_s t);
       rec_
         (Printf.sprintf "agg_lone_latency_b%d_ns" budget_ns)
         (float_of_int lat))
    [ 1_000; 5_000; 20_000; 50_000 ];
  (* (c) adaptive polling *)
  let static_polls, static_t = polling Na.default_policy in
  let eager_polls, eager_t =
    polling (Na.Adaptive { Na.default_adaptive with Na.idle_backoff = false })
  in
  let backoff_polls, backoff_t = polling (Na.Adaptive Na.default_adaptive) in
  let reduction = float_of_int eager_polls /. float_of_int (max backoff_polls 1) in
  Printf.printf
    "(c) charged idle SysIO polls over %d ping-pongs:\n" pingpong_iters;
  Printf.printf "    %-18s %6d polls   %8d ns total\n" "static (no model)"
    static_polls static_t;
  Printf.printf "    %-18s %6d polls   %8d ns total\n" "adaptive eager"
    eager_polls eager_t;
  Printf.printf "    %-18s %6d polls   %8d ns total   (%.1fx fewer)\n"
    "adaptive backoff" backoff_polls backoff_t reduction;
  rec_ "polls_idle_static" (float_of_int static_polls);
  rec_ "polls_idle_eager" (float_of_int eager_polls);
  rec_ "polls_idle_backoff" (float_of_int backoff_polls);
  rec_ "poll_reduction" reduction;
  rec_ "pingpong_static_ns" (float_of_int static_t);
  rec_ "pingpong_backoff_ns" (float_of_int backoff_t);
  print_endline
    "expected shape: (a) >= 2x; (b) rate flat past ~5 us budget, lone latency";
  print_endline
    "grows with the budget; (c) backoff >= 5x fewer charged idle polls."
