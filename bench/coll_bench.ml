(* E13: topology-aware collectives at grid scale.

   An 8-island grid (128 Myrinet nodes per island, one shared VTHD WAN
   backbone, 1024 ranks) runs every collective under both Group strategies.
   The quantity at stake is WAN crossings: the flat rank-0 star pays one
   crossing per rank outside the root's island, the multilevel strategy one
   per cluster per phase. Payload delivered is cross-checked between the two
   strategies (checksums must agree), and the broadcast WAN-message
   reduction is asserted to be at least an order of magnitude. *)

module Group = Collectives.Group
module Gridgen = Scenario.Gridgen
module Coll = Scenario.Coll

let clusters = 8
let per_cluster = 128
let payload = 4096 (* bcast / reduce / allreduce *)
let chunk = 64 (* per-rank gather / scatter *)

let run_strategy strategy =
  let r =
    Coll.run ~seed:Bhelp.seed ~clusters ~nodes_per_cluster:per_cluster
      ~payload ~chunk ~ops:Coll.all_ops strategy
  in
  List.map (fun (op, m) -> (Coll.op_name op, m)) r.ops

(* Construction cost of one circuit over the whole grid: wall ms (min of
   3 builds; noise only adds) and bytes still live per ordered member
   pair once it is built (deterministic GC word count). *)
let circuit_build () =
  let n = clusters * per_cluster in
  let best_ms = ref infinity and live_per_pair = ref 0.0 in
  for _ = 1 to 3 do
    Padico.reset ();
    let g = Gridgen.generate ~clusters ~nodes_per_cluster:per_cluster () in
    Gc.full_major ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let t0 = Unix.gettimeofday () in
    let cts = Padico.circuit g.Gridgen.grid ~name:"e13-build" g.Gridgen.nodes in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    Gc.full_major ();
    let live1 = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity (g, cts));
    best_ms := Float.min !best_ms ms;
    live_per_pair :=
      float_of_int ((live1 - live0) * (Sys.word_size / 8))
      /. float_of_int (n * (n - 1))
  done;
  Padico.reset ();
  Printf.printf
    "circuit build over %d ranks: %.0f ms, %.1f B live per member pair\n\n"
    n !best_ms !live_per_pair;
  Bhelp.record ~experiment:"e13" "circuit_build_ms" !best_ms;
  Bhelp.record ~experiment:"e13" "circuit_live_bytes_per_pair" !live_per_pair

let run () =
  Scenario.print_header
    (Printf.sprintf
       "E13: collectives at grid scale (%d clusters x %d nodes = %d ranks)"
       clusters per_cluster (clusters * per_cluster));
  circuit_build ();
  let flat = run_strategy Group.Flat in
  let ml = run_strategy Group.Multilevel in
  Printf.printf
    "%-10s %11s %12s %11s %12s %9s %9s\n"
    "op" "flat msgs" "flat bytes" "ml msgs" "ml bytes" "msg x" "time x";
  List.iter2
    (fun (op, (f : Coll.meas)) (op', (m : Coll.meas)) ->
       assert (op = op');
       if f.sum <> m.sum then begin
         Printf.eprintf
           "e13 %s: strategies delivered different payloads (%d vs %d)\n" op
           f.sum m.sum;
         exit 1
       end;
       let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b in
       Printf.printf "%-10s %11d %12d %11d %12d %9.1f %9.2f\n" op f.msgs
         f.bytes m.msgs m.bytes
         (ratio f.msgs m.msgs)
         (ratio f.ns m.ns);
       Bhelp.record ~experiment:"e13" (op ^ ".flat.wan_msgs")
         (float_of_int f.msgs);
       Bhelp.record ~experiment:"e13" (op ^ ".flat.wan_bytes")
         (float_of_int f.bytes);
       Bhelp.record ~experiment:"e13" (op ^ ".ml.wan_msgs")
         (float_of_int m.msgs);
       Bhelp.record ~experiment:"e13" (op ^ ".ml.wan_bytes")
         (float_of_int m.bytes);
       Bhelp.record ~experiment:"e13" (op ^ ".flat.completion_ns")
         (float_of_int f.ns);
       Bhelp.record ~experiment:"e13" (op ^ ".ml.completion_ns")
         (float_of_int m.ns);
       Bhelp.record ~experiment:"e13" (op ^ ".completion_ratio")
         (ratio f.ns m.ns))
    flat ml;
  let f_bcast = List.assoc "bcast" flat and m_bcast = List.assoc "bcast" ml in
  let msg_ratio =
    float_of_int f_bcast.msgs /. float_of_int (max 1 m_bcast.msgs)
  in
  let byte_ratio =
    float_of_int f_bcast.bytes /. float_of_int (max 1 m_bcast.bytes)
  in
  Bhelp.record ~experiment:"e13" "bcast.wan_msg_ratio" msg_ratio;
  Bhelp.record ~experiment:"e13" "bcast.wan_byte_ratio" byte_ratio;
  Printf.printf
    "\nbroadcast WAN reduction: %.0fx messages, %.0fx bytes (flat %d -> multilevel %d msgs)\n"
    msg_ratio byte_ratio f_bcast.msgs m_bcast.msgs;
  if msg_ratio < 10.0 || byte_ratio < 10.0 then begin
    Printf.eprintf
      "e13: multilevel broadcast must cut WAN traffic >= 10x (got %.1fx msgs, %.1fx bytes)\n"
      msg_ratio byte_ratio;
    exit 1
  end
