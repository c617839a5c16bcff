(* The repository benchmark runner.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) repeat fresh set-up + timed phase of one
   workload until S seconds have passed (at least four repetitions) and
   print the end-to-end metrics. Traced runs (--trace 1) alternate an
   untraced repetition with one that enables Obs.Trace, records the
   benchmark's own wall spans and drives the simulator one
   Engine.Sim.step at a time to count events; they print the per-layer
   metrics and write a Chrome trace into perfbench/out. The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics. *)

module Trace = Padico_obs.Trace
module Event = Padico_obs.Event
module J = Padico_obs.Json

let workloads =
  [ ("san-mix", San_mix.rep);
    ("wan-collectives", Wan_coll.rep);
    ("edge-churn", Edge_churn.rep);
    ("host-loopback", Host_loop.rep) ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: san-mix wan-collectives edge-churn host-loopback";
  exit 2

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) in
  let rec go = function
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := int_of_string v; go r
    | "--trace" :: v :: r -> trace := int_of_string v; go r
    | [] -> ()
    | a :: _ -> Printf.eprintf "perfbench: unexpected argument %s\n" a; usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
     || not (List.mem_assoc !workload workloads)
  then usage ();
  (!workload, !seed, !seconds, !trace = 1)

(* ---------- drivers ---------- *)

let run_driver ?until grid = Padico.run ?until grid

(* Drives the engine one event at a time, exactly as [Engine.Sim.run]
   would, counting events and the deepest pending queue seen. *)
let events = ref 0
let pending_peak = ref 0

(* Open SysIO connections, sampled every 1024 events of a traced run. *)
let conns_peak = ref 0
let conn_nodes : Netaccess.Sysio.t list ref = ref []

let sample_conns () =
  let c = List.fold_left (fun a s -> a + Netaccess.Sysio.conn_count s) 0 !conn_nodes in
  if c > !conns_peak then conns_peak := c

let step_driver ?until grid =
  match Padico.backend grid with
  | Padico.Host -> Padico.run ?until grid
  | Padico.Sim ->
    let sim = Padico.sim grid in
    let span = Meter.Spans.start "Engine.Sim.step" in
    Engine.Sim.clear_stopped sim;
    let continue = ref true in
    while !continue do
      match Engine.Sim.peek_next sim with
      | None -> continue := false
      | Some t when (match until with Some u -> t > u | None -> false) ->
        Engine.Sim.run ?until sim;
        continue := false
      | Some _ ->
        let p = Engine.Sim.pending sim in
        if p > !pending_peak then pending_peak := p;
        ignore (Engine.Sim.step sim);
        incr events;
        if !events land 1023 = 0 then sample_conns ();
        if Engine.Sim.stopped sim then continue := false
    done;
    Meter.Spans.stop span

(* ---------- one repetition ---------- *)

type snap = {
  reg : (string, Meter.agg) Hashtbl.t;
  gc : Meter.gc_snap;
  copies : int;
  pool_hits : int;
  pool_misses : int;
}

let snap () =
  let module P = Engine.Bytebuf.Pool in
  { reg = Meter.registry (); gc = Meter.gc_snap ();
    copies = Engine.Bytebuf.copies_performed ();
    pool_hits = P.pool_hits () + P.sized_hits ();
    pool_misses = P.pool_misses () + P.sized_misses () }

type measured = {
  r : Wl.rep;
  before : snap;
  after : snap;
  heap_mb : float;
  grid0 : (string * float) list;  (* grid figures at the timed phase's start *)
  grid1 : (string * float) list;  (* ... and at its end *)
}

(* Segment and host-loop figures are read from the grid the workload
   built; the workload registers it through [current_grid]. *)
let current_grid : Padico.t option ref = ref None

let grid_stats () =
  match !current_grid with
  | None -> []
  | Some g ->
    let segs = Simnet.Net.segments (Padico.net g) in
    let sum f sel = List.fold_left (fun acc s -> if sel s then acc + f s else acc) 0 segs in
    let all _ = true in
    let is_wan s =
      match (Simnet.Segment.model s).Simnet.Linkmodel.class_ with
      | Simnet.Linkmodel.Wan | Simnet.Linkmodel.Lossy_wan -> true
      | _ -> false
    in
    let nodes = Simnet.Net.nodes (Padico.net g) in
    let sysio f = List.fold_left (fun acc n -> acc + f (Netaccess.Sysio.get n)) 0 nodes in
    let loop f = match Padico.loop g with Some l -> f l | None -> 0 in
    [ ("frames_sent", float_of_int (sum Simnet.Segment.frames_sent all));
      ("frames_delivered", float_of_int (sum Simnet.Segment.frames_delivered all));
      ("wan_frames_lost", float_of_int (sum Simnet.Segment.frames_lost is_wan));
      ("wan_bytes", float_of_int (sum Simnet.Segment.bytes_sent is_wan));
      ("conns", float_of_int (sysio Netaccess.Sysio.conn_count));
      ("resident", float_of_int (sysio Netaccess.Sysio.bytes_resident));
      ("reaped", float_of_int (sysio Netaccess.Sysio.conns_reaped));
      ("mad_msgs",
       float_of_int
         (List.fold_left
            (fun acc s ->
               if (Simnet.Segment.model s).Simnet.Linkmodel.class_ = Simnet.Linkmodel.San
               then
                 List.fold_left
                   (fun acc n -> acc + Madeleine.Mad.messages_sent (Madeleine.Mad.init s n))
                   acc (Simnet.Segment.nodes s)
               else acc)
            0 segs));
      ("hostio.iterations", float_of_int (loop Hostio.Loop.iterations));
      ("hostio.timers", float_of_int (loop Hostio.Loop.timers_fired));
      ("hostio.fd_events", float_of_int (loop Hostio.Loop.fd_events)) ]

(* Set by the traced run to start and stop Obs.Trace around the timed
   phase. *)
let on_timed_start = ref (fun () -> ())
let on_timed_end = ref (fun () -> ())

let one_rep ~seed ~traced ~first f =
  Padico.reset ();
  current_grid := None;
  Gc.compact ();
  let before = ref None and after = ref None and heap = ref 0.0 in
  let gstats = ref [] and gstats0 = ref [] in
  let hooks =
    { Wl.drive = (if traced then step_driver else run_driver);
      timed_start =
        (fun g ->
           current_grid := Some g;
           conn_nodes := List.map Netaccess.Sysio.get (Simnet.Net.nodes (Padico.net g));
           !on_timed_start ();
           gstats0 := grid_stats ();
           before := Some (snap ()));
      timed_end =
        (fun () ->
           after := Some (snap ());
           !on_timed_end ();
           gstats := grid_stats ();
           if first then heap := Meter.top_heap_mb ()) }
  in
  let r = f ~seed hooks in
  match (!before, !after) with
  | Some b, Some a ->
    { r; before = b; after = a; heap_mb = !heap; grid0 = !gstats0; grid1 = !gstats }
  | _ -> failwith "workload did not mark its timed phase"

(* ---------- output ---------- *)

(* Every digit as measured; a figure that could not be measured (too few
   samples) prints as null, and the run is then marked incorrect. *)
let fmt_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (k, u, v) ->
       Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
         (if i = 0 then "" else ", ") k (fmt_num v) u)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (k, u, v) -> Printf.printf "  %-34s %18s %s\n" k (fmt_num v) u) rows

let sorted_lat (m : measured list) =
  match m with
  | [] -> [||]
  | first :: _ when first.r.Wl.clock = `Virtual ->
    (* Every repetition of a simulated workload is the same run (checked
       through the digest), so the first one carries the distribution. *)
    Meter.Samples.sorted first.r.Wl.lat
  | _ -> Meter.Samples.sorted (List.concat_map (fun m -> m.r.Wl.lat) m)

let pct_or_nan sorted p =
  match Meter.percentile sorted p with Some v -> v | None -> nan

let grid_end m k = try List.assoc k m.grid1 with Not_found -> 0.0

let grid_delta m k =
  grid_end m k -. (try List.assoc k m.grid0 with Not_found -> 0.0)

(* ---------- untraced run: end-to-end metrics ---------- *)

let max_reps = 200

(* The first repetition of a process pays for growing the heap and
   faulting in fresh pages; wall-clock medians leave it out. Its
   deterministic outputs still count. *)
let warm (l : 'a list) = match l with _ :: (_ :: _ as rest) -> rest | l -> l

let untraced ~name ~seed ~seconds f =
  let t0 = Meter.now_ns () in
  let rec loop i acc =
    let m = one_rep ~seed ~traced:false ~first:(i = 0) f in
    let acc = m :: acc in
    if i + 1 < max_reps && (i + 1 < 4 || Meter.secs_since t0 < float_of_int seconds)
    then loop (i + 1) acc
    else List.rev acc
  in
  let reps = loop 0 [] in
  let first = List.hd reps in
  let virt = first.r.Wl.clock = `Virtual in
  let digest_ok = (not virt) || List.for_all (fun m -> m.r.Wl.digest = first.r.Wl.digest) reps in
  let lat = sorted_lat reps in
  let pct p =
    match first.r.Wl.pct with
    | Some f -> (match f p with Some v -> v | None -> nan)
    | None -> pct_or_nan lat p
  in
  let p50 = pct 50.0 and p99 = pct 99.0 in
  let attempted = List.fold_left (fun a m -> a + m.r.Wl.ops) 0 reps in
  let failed = List.fold_left (fun a m -> a + m.r.Wl.failed) 0 reps in
  let setup_s = Meter.median_of (List.map (fun m -> m.r.Wl.setup_s) (warm reps)) in
  let wall_s = Meter.median_of (List.map (fun m -> m.r.Wl.wall_s) (warm reps)) in
  let ops1 = float_of_int first.r.Wl.ops in
  let wan = grid_delta first "wan_bytes" in
  let metrics =
    [ ("setup_s", "s", setup_s);
      ("wall_s", "s", wall_s);
      ("peak_heap_mb", "MiB", first.heap_mb);
      ("lat_p50_us", "us", p50);
      ("lat_p99_us", "us", p99) ]
  in
  (* The same figures under the names of the workload's own clock, and
     the workload-specific ones, for people reading the output. *)
  let lat_name = if virt then "vlat" else "rtt" in
  let clock = if virt then "us-virtual" else "us-wall" in
  print_table
    (Printf.sprintf "perfbench %s seed=%d reps=%d samples=%d clock=%s" name seed
       (List.length reps) (Array.length lat) (if virt then "virtual" else "wall"))
    ([ ("setup_s", "s-wall", setup_s);
       ("wall_s", "s-wall", wall_s);
       ("wall_s_min", "s-wall", List.fold_left (fun a m -> Float.min a m.r.Wl.wall_s) infinity (warm reps));
       ("wall_s_max", "s-wall", List.fold_left (fun a m -> Float.max a m.r.Wl.wall_s) 0.0 (warm reps));
       ("peak_heap_mb", "MiB", first.heap_mb);
       ("fail_ratio", "ratio", Meter.ratio failed attempted);
       (lat_name ^ "_p50_us", clock, p50);
       (lat_name ^ "_p99_us", clock, p99);
       ("lat_samples", "count", float_of_int (Array.length lat)) ]
     @ (if wan > 0.0 then [ ("wan_bytes_per_op", "B", wan /. ops1) ] else [])
     @ first.r.Wl.extra);
  if not digest_ok then
    print_endline "  ERROR: repetitions with the same seed gave different virtual results";
  if Float.is_nan p50 || Float.is_nan p99 then
    print_endline "  ERROR: too few latency samples for p50/p99";
  let correct = failed = 0 && digest_ok && not (Float.is_nan p99) in
  (correct, attempted, failed, metrics)

(* ---------- traced run: per-layer metrics ---------- *)

let trace_capacity = 1 lsl 21

let trace_counts records =
  let headers = ref 0 and combined = ref 0 in
  let vl_done = ref 0 and vl_err = ref 0 and packs = ref 0 in
  let stages : (string, float * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Trace.record) ->
       match r.Trace.ev with
       | Event.Header { combined = c; _ } ->
         incr headers;
         if c then incr combined
       | Event.Vl_complete { result; _ } ->
         incr vl_done;
         if result = "error" then incr vl_err
       | Event.Ct_pack _ -> incr packs
       | Event.Coll_stage { stage; level; _ } when r.Trace.dur >= 0 ->
         let k = stage ^ "." ^ level in
         let s, n = try Hashtbl.find stages k with Not_found -> (0.0, 0) in
         Hashtbl.replace stages k (s +. float_of_int r.Trace.dur, n + 1)
       | _ -> ())
    records;
  let stage k =
    match Hashtbl.find_opt stages k with
    | Some (s, n) when n > 0 -> s /. float_of_int n /. 1e3
    | _ -> 0.0
  in
  (Meter.ratio !combined !headers, Meter.ratio !vl_err !vl_done, !packs, stage)

let out_dir = "perfbench/out"

let write_chrome ~name ~seed records =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* One file per workload, overwritten by each traced run, so repeated
     runs do not fill the disk; the seed is recorded inside. *)
  let path = Filename.concat out_dir (name ^ ".trace.json") in
  let tree =
    match Padico_obs.Export_chrome.json ~records () with
    | J.Obj (("traceEvents", J.List evs) :: rest) ->
      J.Obj
        ((("traceEvents", J.List (evs @ Meter.Spans.chrome_events ~pid:999_999)) :: rest)
         @ [ ("otherData", J.Obj [ ("workload", J.Str name); ("seed", J.Int seed) ]) ])
    | other -> other
  in
  let oc = open_out path in
  let b = Buffer.create (1 lsl 20) in
  J.to_buffer b tree;
  Buffer.output_buffer oc b;
  close_out oc;
  path

let traced ~name ~seed ~seconds f =
  let t0 = Meter.now_ns () in
  let walls_u = ref [] and walls_t = ref [] in
  let first_pair = ref None in
  let attempted = ref 0 and failed = ref 0 and digests_differ = ref false in
  let rec loop i =
    let u = one_rep ~seed ~traced:false ~first:(i = 0) f in
    events := 0;
    pending_peak := 0;
    conns_peak := 0;
    Meter.Spans.clear ();
    Meter.Spans.on := true;
    on_timed_start := (fun () -> events := 0; Trace.enable ~capacity:trace_capacity ());
    on_timed_end := (fun () -> Trace.disable ());
    let t = one_rep ~seed ~traced:true ~first:false f in
    Meter.Spans.on := false;
    on_timed_start := (fun () -> ());
    on_timed_end := (fun () -> ());
    walls_u := u.r.Wl.wall_s :: !walls_u;
    walls_t := t.r.Wl.wall_s :: !walls_t;
    attempted := !attempted + u.r.Wl.ops + t.r.Wl.ops;
    failed := !failed + u.r.Wl.failed + t.r.Wl.failed;
    if u.r.Wl.clock = `Virtual && u.r.Wl.digest <> t.r.Wl.digest then digests_differ := true;
    if i = 0 then begin
      let records = Trace.records () in
      let path = write_chrome ~name ~seed records in
      first_pair :=
        Some (u, t, !events, !pending_peak, !conns_peak, Trace.dropped (),
              trace_counts records, path)
    end;
    if i + 1 < max_reps && (i + 1 < 2 || Meter.secs_since t0 < float_of_int seconds) then
      loop (i + 1)
  in
  loop 0;
  let u, t, events, pending_peak, conns_peak, dropped, (combined, vl_err, packs, stage), path =
    Option.get !first_pair
  in
  let ops = float_of_int (max 1 t.r.Wl.ops) in
  let d k = float_of_int (Meter.reg_count t.after.reg k - Meter.reg_count t.before.reg k) in
  let wait k =
    (* Mean queue wait over the timed phase only. *)
    let get (s : snap) =
      match Hashtbl.find_opt s.reg k with
      | Some a -> (a.Meter.wsum, a.Meter.wn)
      | None -> (0.0, 0)
    in
    let s1, n1 = get t.after and s0, n0 = get t.before in
    if n1 - n0 = 0 then 0.0 else (s1 -. s0) /. float_of_int (n1 - n0)
  in
  let fev = float_of_int events in
  let per_event v = if events = 0 then 0.0 else v /. fev in
  let polls_idle = d "na.sysio.polls_idle" and polls_busy = d "na.sysio.polls_busy" in
  let frames = grid_delta t "frames_sent" in
  let conns_end = grid_end t "conns" in
  let hits = t.after.pool_hits - t.before.pool_hits in
  let misses = t.after.pool_misses - t.before.pool_misses in
  let wl k = try List.assoc k t.r.Wl.layer with Not_found -> 0.0 in
  let span_sum names = List.fold_left (fun a n -> a +. Meter.Spans.total_ns n) 0.0 names in
  let overhead =
    Meter.median_of (warm (List.rev !walls_t)) /. Meter.median_of (warm (List.rev !walls_u))
  in
  let metrics =
    [ ("engine.events", "count", fev);
      ("engine.ns_per_event", "ns",
       per_event (Meter.median_of (warm (List.rev !walls_u)) *. 1e9));
      ("engine.pending_peak", "count", float_of_int pending_peak);
      ("engine.minor_words_per_event", "words",
       per_event (u.after.gc.Meter.minor_words -. u.before.gc.Meter.minor_words));
      ("engine.major_gcs", "count",
       float_of_int (u.after.gc.Meter.major_gcs - u.before.gc.Meter.major_gcs));
      ("bytebuf.copies_per_op", "count", float_of_int (t.after.copies - t.before.copies) /. ops);
      ("bytebuf.pool_hit_ratio", "ratio", Meter.ratio hits (hits + misses));
      ("simnet.frames_per_op", "count", frames /. ops);
      ("simnet.delivered_ratio", "ratio",
       if frames = 0.0 then 0.0 else grid_delta t "frames_delivered" /. frames);
      ("simnet.wan_frames_lost", "count", grid_delta t "wan_frames_lost");
      ("mad.messages_per_op", "count", grid_delta t "mad_msgs" /. ops);
      ("tcp.conns_peak", "count", float_of_int conns_peak);
      ("tcp.reaped", "count", grid_delta t "reaped");
      ("tcp.resident_bytes_per_conn", "B",
       if conns_end = 0.0 then 0.0 else grid_end t "resident" /. conns_end);
      ("na.madio.dispatched", "count", d "na.madio.dispatched");
      ("na.madio.wait_ns", "ns", wait "na.madio.wait_ns");
      ("na.madio.depth_peak", "count", Meter.reg_max t.after.reg "na.madio.depth_peak");
      ("na.sysio.dispatched", "count", d "na.sysio.dispatched");
      ("na.sysio.wait_ns", "ns", wait "na.sysio.wait_ns");
      ("na.sysio.polls_idle_ratio", "ratio",
       if polls_idle +. polls_busy = 0.0 then 0.0 else polls_idle /. (polls_idle +. polls_busy));
      ("na.ready.drains", "count", d "na.ready.drains");
      ("madio.messages_per_op", "count", d "madio.sent" /. ops);
      ("madio.header_combined_ratio", "ratio", combined);
      ("madio.credit_stalls", "count", d "madio.credit_stalls");
      ("sysio.events_per_op", "count", d "sysio.dispatched" /. ops);
      ("api.mpi.vlat_p50_us", "us", wl "api.mpi.vlat_p50_us");
      ("api.vlink.vlat_p50_us", "us", wl "api.vlink.vlat_p50_us");
      ("api.corba.vlat_p50_us", "us", wl "api.corba.vlat_p50_us");
      ("api.mpi.send_wall_ns", "ns", Meter.Spans.median_ns "Mpi.send");
      ("api.vio.write_wall_ns", "ns", Meter.Spans.median_ns "Vio.write");
      ("api.orb.oneway_wall_ns", "ns", Meter.Spans.median_ns "Orb.invoke_oneway");
      ("vl.error_ratio", "ratio", vl_err);
      ("ct.packs_per_op", "count", float_of_int packs /. ops);
      ("selector.choices", "count",
       float_of_int (Meter.reg_prefix_count t.after.reg "selector.choice."));
      ("setup.connect_ns", "ns",
       span_sum [ "Padico.connect"; "Padico.circuit"; "Group.create"; "Sysio.connect" ]);
      ("coll.stage.up.san_us", "us", stage "up.san");
      ("coll.stage.up.wan_us", "us", stage "up.wan");
      ("coll.stage.down.san_us", "us", stage "down.san");
      ("coll.stage.down.wan_us", "us", stage "down.wan");
      ("coll.wan_msgs_per_op", "count", wl "coll.wan_msgs_per_op");
      ("setup.topology_s", "s", wl "setup.topology_s");
      ("setup.group_s", "s", wl "setup.group_s");
      ("hostio.iterations_per_op", "count", wl "hostio.iterations_per_op");
      ("hostio.timers_per_op", "count", wl "hostio.timers_per_op");
      ("hostio.fd_events_per_op", "count", wl "hostio.fd_events_per_op");
      ("obs.trace_overhead", "x", overhead);
      ("obs.trace_dropped", "count", float_of_int dropped) ]
  in
  print_table
    (Printf.sprintf "perfbench %s seed=%d traced pairs=%d spans=%d (dropped %d) trace=%s"
       name seed (List.length !walls_u) !Meter.Spans.n !Meter.Spans.dropped path)
    metrics;
  if !digests_differ then
    print_endline "  ERROR: a traced repetition gave different virtual results";
  (!failed = 0 && not !digests_differ, !attempted, !failed, metrics)

let () =
  let name, seed, seconds, trace = args () in
  let f = List.assoc name workloads in
  let correct, attempted, failed, metrics =
    if trace then traced ~name ~seed ~seconds f
    else untraced ~name ~seed ~seconds f
  in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
