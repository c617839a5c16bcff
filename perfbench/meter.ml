(* Measurement helpers shared by every workload: a monotonic wall clock,
   preallocated sample buffers, the percentile rule, the benchmark's own
   wall-clock spans, and readers for the counters the program already
   exposes. Nothing here reaches inside lib/: every number is read through
   a public accessor, the metrics registry or the existing trace ring. *)

module Metrics = Padico_obs.Metrics
module Stats = Engine.Stats

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ---------- samples ---------- *)

(* A fixed-capacity float buffer allocated before the timed phase: adding a
   sample is a store and an increment, never an allocation, so recording
   does not perturb the latencies being recorded. *)
module Samples = struct
  type t = { mutable n : int; data : float array }

  let create cap = { n = 0; data = Array.make (max 1 cap) 0.0 }

  let add t v =
    if t.n >= Array.length t.data then failwith "Samples.add: capacity exceeded";
    Array.unsafe_set t.data t.n v;
    t.n <- t.n + 1

  let length t = t.n

  let sorted ts =
    let a = Array.concat (List.map (fun t -> Array.sub t.data 0 t.n) ts) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it: a p99 over 200 samples is two observations, not a tail. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    let idx = max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1) in
    if n - 1 - idx < 10 then None else Some sorted.(idx)
  end

let median_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------- the benchmark's own wall-clock spans ---------- *)

(* Spans around each call the benchmark makes into a layer: name, start,
   end, the enclosing span and the operation they belong to. Kept in
   preallocated arrays and written out when the run ends; recording is off
   unless the run is traced. *)
module Spans = struct
  let cap = 1 lsl 18
  let on = ref false
  let n = ref 0
  let dropped = ref 0
  let name = Array.make cap 0
  let t0 = Array.make cap 0
  let t1 = Array.make cap 0
  let parent = Array.make cap (-1)
  let op = Array.make cap (-1)
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_list = ref [||]

  let intern s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names in
      Hashtbl.replace names s i;
      name_list := Array.append !name_list [| s |];
      i

  let clear () = n := 0; dropped := 0

  let start ?(parent_span = -1) ?(op_id = -1) s =
    if not !on then -1
    else if !n >= cap then begin incr dropped; -1 end
    else begin
      let i = !n in
      incr n;
      name.(i) <- intern s;
      parent.(i) <- parent_span;
      op.(i) <- op_id;
      t1.(i) <- -1;
      t0.(i) <- now_ns ();
      i
    end

  let stop i = if i >= 0 then t1.(i) <- now_ns ()

  (* [wrap s f] runs [f] inside a span named [s]. *)
  let wrap ?parent_span ?op_id s f =
    let i = start ?parent_span ?op_id s in
    let r = f () in
    stop i;
    r

  let durations s =
    match Hashtbl.find_opt names s with
    | None -> []
    | Some id ->
      let acc = ref [] in
      for i = 0 to !n - 1 do
        if name.(i) = id && t1.(i) >= 0 then
          acc := float_of_int (t1.(i) - t0.(i)) :: !acc
      done;
      !acc

  (* Median wall ns of the closed spans named [s] (0 when none). *)
  let median_ns s = match durations s with [] -> 0.0 | l -> median_of l

  let total_ns s = List.fold_left ( +. ) 0.0 (durations s)

  (* Chrome trace_event "X" events on their own process, wall-clock µs
     relative to the first span. *)
  let chrome_events ~pid =
    let module J = Padico_obs.Json in
    let base = if !n = 0 then 0 else t0.(0) in
    let evs = ref [] in
    for i = !n - 1 downto 0 do
      if t1.(i) >= 0 then
        evs :=
          J.Obj
            [ ("name", J.Str !name_list.(name.(i)));
              ("cat", J.Str "perfbench");
              ("ph", J.Str "X");
              ("ts", J.Float (float_of_int (t0.(i) - base) /. 1e3));
              ("dur", J.Float (float_of_int (t1.(i) - t0.(i)) /. 1e3));
              ("pid", J.Int pid);
              ("tid", J.Int 0);
              ("args",
               J.Obj [ ("span", J.Int i); ("parent", J.Int parent.(i));
                       ("op", J.Int op.(i)) ]) ]
          :: !evs
    done;
    J.Obj
      [ ("name", J.Str "process_name"); ("ph", J.Str "M"); ("pid", J.Int pid);
        ("args", J.Obj [ ("name", J.Str "perfbench (wall clock)") ]) ]
    :: !evs
end

(* ---------- counters the program exposes ---------- *)

(* Registry instruments aggregated over every scope (nodes, links,
   global) by name: counters summed, summaries merged, gauges maxed. *)
type agg = { mutable count : int; mutable wsum : float; mutable wn : int;
             mutable gmax : float }

let registry () =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, key, v) ->
       let a =
         match Hashtbl.find_opt tbl key with
         | Some a -> a
         | None ->
           let a = { count = 0; wsum = 0.0; wn = 0; gmax = 0.0 } in
           Hashtbl.replace tbl key a;
           a
       in
       match v with
       | Metrics.Counter c -> a.count <- a.count + Stats.Counter.value c
       | Metrics.Summary s ->
         let k = Stats.Summary.n s in
         if k > 0 then begin
           a.wsum <- a.wsum +. (Stats.Summary.mean s *. float_of_int k);
           a.wn <- a.wn + k
         end
       | Metrics.Histogram h -> a.count <- a.count + Stats.Histogram.count h
       | Metrics.Gauge g -> a.gmax <- Float.max a.gmax (g ()))
    (Metrics.all ());
  tbl

let reg_count tbl k =
  match Hashtbl.find_opt tbl k with Some a -> a.count | None -> 0

let reg_max tbl k =
  match Hashtbl.find_opt tbl k with Some a -> a.gmax | None -> 0.0

(* Sum of every counter whose name starts with [prefix]. *)
let reg_prefix_count tbl prefix =
  Hashtbl.fold
    (fun k a acc ->
       if String.length k >= String.length prefix
       && String.sub k 0 (String.length prefix) = prefix
       then acc + a.count
       else acc)
    tbl 0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Process-wide allocation and GC counters. *)
type gc_snap = { minor_words : float; major_gcs : int }

let gc_snap () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_gcs = s.Gc.major_collections }

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
