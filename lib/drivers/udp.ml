module Bytebuf = Engine.Bytebuf

type Simnet.Packet.content +=
  | Udp_dgram of { src_port : int; dst_port : int; data : Bytebuf.t }

type t = {
  seg : Simnet.Segment.t;
  node : Simnet.Node.t;
  binds : (int, src:int -> src_port:int -> Bytebuf.t -> unit) Hashtbl.t;
  mutable sent : int;
  mutable received : int;
}

let endpoints : (int * int, t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset endpoints)

let header_bytes = 28

let node t = t.node
let segment t = t.seg

let max_payload t =
  (Simnet.Segment.model t.seg).Simnet.Linkmodel.mtu - header_bytes

let handle t (pkt : Simnet.Packet.t) =
  match pkt.Simnet.Packet.content with
  | Udp_dgram d ->
    Simnet.Node.cpu_async t.node Calib.udp_recv_ns (fun () ->
        match Hashtbl.find_opt t.binds d.dst_port with
        | Some f ->
          t.received <- t.received + 1;
          f ~src:pkt.Simnet.Packet.src ~src_port:d.src_port d.data
        | None -> ())
  | _ -> ()

let attach seg node =
  let key = (Simnet.Segment.uid seg, Simnet.Node.id node) in
  match Hashtbl.find_opt endpoints key with
  | Some t -> t
  | None ->
    let t = { seg; node; binds = Hashtbl.create 8; sent = 0; received = 0 } in
    Simnet.Segment.set_handler seg node ~proto:Simnet.Packet.Proto.udp
      (handle t);
    Hashtbl.replace endpoints key t;
    t

let bind t ~port f =
  if Hashtbl.mem t.binds port then
    invalid_arg (Printf.sprintf "Udp.bind: port %d already bound" port);
  Hashtbl.replace t.binds port f

let unbind t ~port = Hashtbl.remove t.binds port

let sendto t ~dst ~dst_port ~src_port payload =
  let len = Bytebuf.length payload in
  if len > max_payload t then
    invalid_arg
      (Printf.sprintf "Udp.sendto: datagram of %d exceeds max payload %d" len
         (max_payload t));
  t.sent <- t.sent + 1;
  Simnet.Node.cpu_async t.node Calib.udp_send_ns (fun () ->
      Simnet.Segment.send t.seg
        (Simnet.Packet.make ~src:(Simnet.Node.id t.node) ~dst
           ~proto:Simnet.Packet.Proto.udp ~size:(len + header_bytes)
           (Udp_dgram { src_port; dst_port; data = payload })))

let datagrams_sent t = t.sent
let datagrams_received t = t.received
