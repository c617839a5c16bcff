(* E13 collectives: every Group collective on a multi-cluster grid under
   one strategy, measuring the WAN crossings, bytes and completion time
   each operation adds and the checksum of what it delivered (equal
   across strategies when both deliver the same payloads). *)

module Bb = Engine.Bytebuf
module Group = Collectives.Group

type op = Barrier | Bcast | Reduce | Allreduce | Gather | Scatter

let all_ops = [ Barrier; Bcast; Reduce; Allreduce; Gather; Scatter ]

let op_name = function
  | Barrier -> "barrier"
  | Bcast -> "bcast"
  | Reduce -> "reduce"
  | Allreduce -> "allreduce"
  | Gather -> "gather"
  | Scatter -> "scatter"

type meas = {
  msgs : int;  (* Group-level WAN crossings *)
  bytes : int;
  sum : int;  (* checksum of payload delivered, summed over ranks *)
  ns : int;  (* virtual completion time *)
}

type result = {
  groups : Group.t array;
  ops : (op * meas) list;
}

(* Run [body r member] as one process per rank, to quiescence; return the
   WAN traffic this operation added and the summed delivery checksum. *)
let measure (g : Gridgen.t) groups label body =
  let gm0 = groups.(0) in
  let m0 = Group.wan_messages gm0 and b0 = Group.wan_bytes gm0 in
  let t0 = Padico.now g.grid in
  let sum = ref 0 in
  (* Completion = when the last rank's operation finished, not when the
     simulator drained (stale transport timers run long past the op). *)
  let t1 = ref t0 in
  let hs =
    List.mapi
      (fun r node ->
         Padico.spawn g.grid node
           ~name:(Printf.sprintf "%s-%d" label r)
           (fun () ->
              sum := !sum + body r groups.(r);
              t1 := max !t1 (Padico.now g.grid)))
      g.nodes
  in
  Harness.run g.grid;
  List.iter Harness.fail_on_error hs;
  { msgs = Group.wan_messages gm0 - m0;
    bytes = Group.wan_bytes gm0 - b0;
    sum = !sum;
    ns = !t1 - t0 }

(* [payload] bytes for bcast / reduce / allreduce, [chunk] bytes per rank
   for gather / scatter. *)
let body ~n ~payload ~chunk op r gm =
  let pattern = Harness.pattern in
  match op with
  | Barrier ->
    Group.barrier gm;
    0
  | Bcast ->
    let buf = if r = 0 then pattern payload 42 else Bb.create 0 in
    Bb.checksum (Group.bcast gm ~root:0 buf)
  | Reduce -> (
    match Group.reduce gm ~root:0 ~op:Group.Sum (pattern payload (r + 1)) with
    | Some b -> Bb.checksum b
    | None -> 0)
  | Allreduce ->
    Bb.checksum (Group.allreduce gm ~op:Group.Bxor (pattern payload (r + 1)))
  | Gather -> (
    match Group.gather gm ~root:0 (pattern chunk (r + 1)) with
    | Some parts -> Array.fold_left (fun a b -> a + Bb.checksum b) 0 parts
    | None -> 0)
  | Scatter ->
    let parts =
      if r = 0 then Array.init n (fun i -> pattern chunk (i + 1)) else [||]
    in
    Bb.checksum (Group.scatter gm ~root:0 parts)

let run ~seed ~clusters ~nodes_per_cluster ~payload ~chunk ~ops strategy =
  let sname =
    match strategy with Group.Flat -> "flat" | Group.Multilevel -> "ml"
  in
  let g = Gridgen.generate ~seed ~clusters ~nodes_per_cluster () in
  let groups =
    Group.create ~strategy g.grid ~name:("e13-" ^ sname) g.nodes
  in
  let n = Array.length groups in
  { groups;
    ops =
      List.map
        (fun op ->
           ( op,
             measure g groups
               (sname ^ "-" ^ op_name op)
               (body ~n ~payload ~chunk op) ))
        ops }
