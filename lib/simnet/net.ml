type t = {
  sim : Engine.Sim.t;
  (* Insertion-order collections kept reversed so additions are O(1); the
     accessors re-reverse. Grid-scale scenarios (thousands of nodes) made
     the old [l @ [x]] appends and linear lookups quadratic. *)
  mutable nodes_rev : Node.t list;
  mutable segments_rev : Segment.t list;
  by_id : (int, Node.t) Hashtbl.t;
  loopbacks : (int, Segment.t) Hashtbl.t;
  (* Per-node adjacency (reversed, same relative order as the global
     segment list) so pair queries never scan every segment in the grid. *)
  adjacency : (int, Segment.t list ref) Hashtbl.t;
  mutable next_id : int;
  clock : Engine.Clock.t;
}

let create ?seed ?clock () =
  let sim = Engine.Sim.create ?seed () in
  let clock =
    match clock with Some c -> c | None -> Engine.Sim.clock sim
  in
  { sim; nodes_rev = []; segments_rev = []; by_id = Hashtbl.create 64;
    loopbacks = Hashtbl.create 64; adjacency = Hashtbl.create 64;
    next_id = 0; clock }

let sim t = t.sim
let clock t = t.clock

let adj t node =
  match Hashtbl.find_opt t.adjacency (Node.id node) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.adjacency (Node.id node) l;
    l

let add_node t name =
  let node = Node.create ~clock:t.clock t.sim ~id:t.next_id ~name in
  t.next_id <- t.next_id + 1;
  t.nodes_rev <- node :: t.nodes_rev;
  Hashtbl.replace t.by_id (Node.id node) node;
  let lo = Segment.create t.sim Presets.loopback ~name:(name ^ "/lo") in
  Segment.attach lo node;
  Hashtbl.replace t.loopbacks (Node.id node) lo;
  t.segments_rev <- lo :: t.segments_rev;
  let l = adj t node in
  l := lo :: !l;
  node

let add_segment t model ?name nodes =
  let name = match name with Some n -> n | None -> model.Linkmodel.name in
  let seg = Segment.create t.sim model ~name in
  List.iter
    (fun node ->
       if not (Segment.attached seg node) then begin
         Segment.attach seg node;
         let l = adj t node in
         l := seg :: !l
       end)
    nodes;
  t.segments_rev <- seg :: t.segments_rev;
  seg

let nodes t = List.rev t.nodes_rev
let segments t = List.rev t.segments_rev

let node_by_id t id = Hashtbl.find_opt t.by_id id

let loopback_of t node =
  match Hashtbl.find_opt t.loopbacks (Node.id node) with
  | Some s -> s
  | None -> invalid_arg "Net.loopback_of: unknown node"

let segments_of t node =
  match Hashtbl.find_opt t.adjacency (Node.id node) with
  | Some l -> List.rev !l
  | None -> []

let links_between t a b =
  if Node.id a = Node.id b then [ loopback_of t a ]
  else begin
    let links =
      List.filter (fun s -> Segment.attached s b) (segments_of t a)
    in
    List.sort
      (fun s1 s2 ->
         compare
           (Segment.model s2).Linkmodel.bandwidth_bps
           (Segment.model s1).Linkmodel.bandwidth_bps)
      links
  end

let best_link t a b =
  match links_between t a b with [] -> None | s :: _ -> Some s

let run ?until t = Engine.Sim.run ?until t.sim

let now t = Engine.Sim.now t.sim

let spawn t node ?name f =
  ignore t;
  Node.spawn node ?name f
