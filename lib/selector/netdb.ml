module Node = Simnet.Node
module Segment = Simnet.Segment
module Linkmodel = Simnet.Linkmodel

type level = San | Lan | Wan

let level_name = function San -> "san" | Lan -> "lan" | Wan -> "wan"

type t = {
  size : int;
  cluster_of : int array;  (* rank -> cluster id *)
  members : int array array;  (* cluster id -> ranks, ascending *)
  position : int array;  (* rank -> index in its cluster's members *)
  levels : level array;  (* cluster id -> San | Lan *)
}

(* Union-find over ranks, path-halving; [san.(r)] records whether the
   component containing [r] is joined by at least one SAN hop. *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    parent.(i) <- parent.(p);
    find parent parent.(i)
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

let build net group =
  let n = Array.length group in
  let parent = Array.init n (fun i -> i) in
  (* Ranks sharing a host are one cluster (loopback level = San-like). *)
  let by_host = Hashtbl.create (2 * n) in
  Array.iteri
    (fun r node ->
       let key = Node.uid node in
       match Hashtbl.find_opt by_host key with
       | Some first -> union parent first r
       | None -> Hashtbl.add by_host key r)
    group;
  (* One pass over the grid's segments: every SAN/LAN segment unions the
     group ranks attached to it — O(ports), never O(ranks^2). SAN witnesses
     are resolved to component roots only after every union has run. *)
  let san_witness = ref [] in
  List.iter
    (fun seg ->
       match (Segment.model seg).Linkmodel.class_ with
       | Linkmodel.San | Linkmodel.Lan ->
         let first = ref (-1) in
         List.iter
           (fun node ->
              match Hashtbl.find_opt by_host (Node.uid node) with
              | None -> ()  (* attached node outside the group *)
              | Some r ->
                if !first < 0 then first := r else union parent !first r)
           (Segment.nodes seg);
         if
           !first >= 0
           && (Segment.model seg).Linkmodel.class_ = Linkmodel.San
         then san_witness := !first :: !san_witness
       | Linkmodel.Wan | Linkmodel.Lossy_wan | Linkmodel.Loop -> ())
    (Simnet.Net.segments net);
  let san_seg = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace san_seg (find parent r) ()) !san_witness;
  (* Number clusters by smallest member rank, ascending — roots already are
     the smallest member thanks to min-root unions. *)
  let cluster_of = Array.make n 0 in
  let ids = Hashtbl.create 8 in
  let count = ref 0 in
  for r = 0 to n - 1 do
    let root = find parent r in
    let id =
      match Hashtbl.find_opt ids root with
      | Some id -> id
      | None ->
        let id = !count in
        incr count;
        Hashtbl.add ids root id;
        id
    in
    cluster_of.(r) <- id
  done;
  let sizes = Array.make !count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) cluster_of;
  let members = Array.init !count (fun c -> Array.make sizes.(c) 0) in
  let fill = Array.make !count 0 in
  let position = Array.make n 0 in
  for r = 0 to n - 1 do
    let c = cluster_of.(r) in
    members.(c).(fill.(c)) <- r;
    position.(r) <- fill.(c);
    fill.(c) <- fill.(c) + 1
  done;
  let levels =
    Array.init !count (fun c ->
        let root = find parent members.(c).(0) in
        if sizes.(c) = 1 || Hashtbl.mem san_seg root then San else Lan)
  in
  { size = n; cluster_of; members; position; levels }

(* Remove a rank from the partition: filter it out of its cluster, drop the
   cluster if that empties it, renumber clusters by (new) smallest member so
   the numbering invariant survives, and re-derive positions. The evicted
   rank maps to cluster -1 / position -1; querying it afterwards is a caller
   bug. O(ranks). *)
let evict t r =
  if r < 0 || r >= t.size || t.cluster_of.(r) < 0 then t
  else begin
    let keep =
      Array.to_list t.members
      |> List.mapi (fun c m -> (t.levels.(c), Array.to_list m))
      |> List.filter_map (fun (lvl, m) ->
          match List.filter (fun x -> x <> r) m with
          | [] -> None
          | m' -> Some (lvl, m'))
    in
    (* Ascending smallest member = ascending head (members are sorted). *)
    let keep =
      List.sort (fun (_, a) (_, b) -> compare (List.hd a) (List.hd b)) keep
    in
    let count = List.length keep in
    let cluster_of = Array.make t.size (-1) in
    let position = Array.make t.size (-1) in
    let members = Array.make count [||] in
    let levels = Array.make count San in
    List.iteri
      (fun c (lvl, m) ->
         members.(c) <- Array.of_list m;
         levels.(c) <- lvl;
         Array.iteri
           (fun i x ->
              cluster_of.(x) <- c;
              position.(x) <- i)
           members.(c))
      keep;
    { size = t.size; cluster_of; members; position; levels }
  end

let size t = t.size
let cluster_count t = Array.length t.members
let cluster_of t r = t.cluster_of.(r)
let members t c = t.members.(c)
let position t r = t.position.(r)
let leader t c = t.members.(c).(0)
let cluster_level t c = t.levels.(c)

let hop_level t a b =
  let ca = t.cluster_of.(a) and cb = t.cluster_of.(b) in
  if ca <> cb then Wan else t.levels.(ca)

let pp fmt t =
  Format.fprintf fmt "%d ranks in %d cluster%s:" t.size (cluster_count t)
    (if cluster_count t = 1 then "" else "s");
  Array.iteri
    (fun c m ->
       Format.fprintf fmt " [%d: %d %s, proxy %d]" c (Array.length m)
         (level_name t.levels.(c))
         (leader t c))
    t.members
