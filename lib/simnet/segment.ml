(* Node-id and protocol tables; [nodes]'s order is the one a polymorphic
   [Hashtbl] would give. *)
module Itbl = Engine.Itbl

type port = {
  node : Node.t;
  mutable egress_busy_until : int;
  mutable ingress_busy_until : int;
  handlers : (Packet.t -> unit) Itbl.t;
}

let next_uid = ref 0

type t = {
  uid : int;
  name : string;
  sim : Engine.Sim.t;
  model : Linkmodel.t;
  rng : Engine.Rng.t;
  ports : port Itbl.t;
  mutable sent : int;
  mutable lost : int;
  mutable delivered : int;
  mutable unclaimed : int;
  mutable bytes : int;
  (* Dynamic fault overlay (see Padico_fault.Inject): the static Linkmodel
     stays immutable; faults are transient deltas consulted per frame. *)
  mutable down : bool;
  mutable extra_loss : float;
  mutable extra_latency_ns : int;
  blocked : (int * int, unit) Hashtbl.t; (* partition: (lo, hi) node ids *)
  mutable faulted : int;
  mutable link_watchers : (bool -> unit) list;
}

let log = Logs.Src.create "simnet.segment"

module Log = (val Logs.src_log log : Logs.LOG)

let create sim model ~name =
  incr next_uid;
  let model = Linkmodel.validate model in
  { uid = !next_uid; name; sim; model; rng = Engine.Rng.split (Engine.Sim.rng sim);
    ports = Itbl.create 16; sent = 0; lost = 0; delivered = 0;
    unclaimed = 0; bytes = 0;
    down = false; extra_loss = 0.0; extra_latency_ns = 0;
    blocked = Hashtbl.create 4; faulted = 0; link_watchers = [] }

let uid t = t.uid
let name t = t.name
let model t = t.model
let sim t = t.sim

let attach t node =
  if not (Itbl.mem t.ports (Node.id node)) then
    Itbl.replace t.ports (Node.id node)
      { node; egress_busy_until = 0; ingress_busy_until = 0;
        handlers = Itbl.create 4 }

let attached t node = Itbl.mem t.ports (Node.id node)

let nodes t = Itbl.fold (fun _ p acc -> p.node :: acc) t.ports []

let port_exn t id what =
  match Itbl.find_opt t.ports id with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Segment %s: node %d not attached (%s)" t.name id what)

let set_handler t node ~proto f =
  let p = port_exn t (Node.id node) "set_handler" in
  Itbl.replace p.handlers proto f

let clear_handler t node ~proto =
  let p = port_exn t (Node.id node) "clear_handler" in
  Itbl.remove p.handlers proto

let deliver t (dst : port) (pkt : Packet.t) =
  match Itbl.find_opt dst.handlers pkt.proto with
  | Some f ->
    t.delivered <- t.delivered + 1;
    f pkt
  | None ->
    t.unclaimed <- t.unclaimed + 1;
    Log.debug (fun m ->
        m "%s: no handler for %a at %a" t.name Packet.pp pkt Node.pp dst.node)

(* ---------- dynamic fault overlay ---------- *)

let is_down t = t.down

let set_down t down =
  if t.down <> down then begin
    t.down <- down;
    List.iter (fun f -> f (not down)) (List.rev t.link_watchers)
  end

let on_link_state t f = t.link_watchers <- f :: t.link_watchers

let set_extra_loss t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf "Segment %s: extra loss %g not in [0, 1]" t.name p);
  t.extra_loss <- p

let extra_loss t = t.extra_loss

let set_extra_latency t ns =
  if ns < 0 then
    invalid_arg
      (Printf.sprintf "Segment %s: extra latency %d is negative" t.name ns);
  t.extra_latency_ns <- ns

let extra_latency_ns t = t.extra_latency_ns

let pair_key a b = if a <= b then (a, b) else (b, a)

let block_pair t a b = Hashtbl.replace t.blocked (pair_key a b) ()

let unblock_pair t a b = Hashtbl.remove t.blocked (pair_key a b)

let clear_blocked t = Hashtbl.reset t.blocked

(* No partition set (the common case) costs one length read per frame. *)
let pair_blocked t a b =
  Hashtbl.length t.blocked > 0 && Hashtbl.mem t.blocked (pair_key a b)

let send t (pkt : Packet.t) =
  let src = port_exn t pkt.src "send source" in
  let dst = port_exn t pkt.dst "send destination" in
  if pkt.size > t.model.Linkmodel.mtu then
    invalid_arg
      (Printf.sprintf "Segment %s: frame of %d bytes exceeds MTU %d" t.name
         pkt.size t.model.Linkmodel.mtu);
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + pkt.size;
  if t.down || pair_blocked t pkt.src pkt.dst
     || not (Node.is_up src.node) || not (Node.is_up dst.node)
  then begin
    (* Fault overlay: the frame never reaches the wire. No egress time is
       charged (the NIC rejects immediately) and no randomness is consumed,
       so a healed link resumes with an unperturbed loss/jitter stream. *)
    t.faulted <- t.faulted + 1;
    Log.debug (fun m -> m "%s: fault-dropped %a" t.name Packet.pp pkt)
  end
  else begin
  let now = Engine.Sim.now t.sim in
  (* Back-to-back frames pay the port turnaround gap; an isolated frame on
     an idle port does not (see Linkmodel.turnaround_ns). *)
  let busy = src.egress_busy_until > now in
  let ser =
    Linkmodel.serialization_ns t.model pkt.size
    + (if busy then t.model.Linkmodel.turnaround_ns else 0)
  in
  let start = if busy then src.egress_busy_until else now in
  src.egress_busy_until <- start + ser;
  let loss = Float.min 1.0 (t.model.Linkmodel.loss +. t.extra_loss) in
  if Engine.Rng.bool t.rng loss then begin
    t.lost <- t.lost + 1;
    Log.debug (fun m -> m "%s: lost %a" t.name Packet.pp pkt)
  end
  else begin
    let jitter =
      if t.model.Linkmodel.jitter_ns = 0 then 0
      else Engine.Rng.int t.rng (t.model.Linkmodel.jitter_ns + 1)
    in
    let arrival =
      start + ser + t.model.Linkmodel.latency_ns + t.extra_latency_ns + jitter
    in
    (* Ingress contention: the receiving port absorbs at most one frame per
       serialization slot; concurrent senders queue behind each other. *)
    let rx_start =
      if dst.ingress_busy_until > arrival then dst.ingress_busy_until
      else arrival
    in
    dst.ingress_busy_until <- rx_start + ser;
    Engine.Sim.at t.sim rx_start (fun () -> deliver t dst pkt)
  end
  end

let frames_sent t = t.sent
let frames_faulted t = t.faulted
let frames_lost t = t.lost
let frames_delivered t = t.delivered
let frames_unclaimed t = t.unclaimed
let bytes_sent t = t.bytes
