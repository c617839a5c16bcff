module Bytebuf = Engine.Bytebuf

type Simnet.Packet.content +=
  | Gm_frag of {
      chan : int;
      msg_id : int;
      frag : int;
      nfrags : int;
      total : int;
      data : Bytebuf.t;
    }

(* Reassembly state for one incoming message on one channel. *)
type partial = {
  buffer : Bytebuf.t;
  mutable received : int; (* fragments seen so far *)
  nfrags : int;
}

type channel = {
  port : t;
  id : int;
  mutable recv : (src:int -> Bytebuf.t -> unit) option;
  mutable next_msg_id : int;
  partials : (int * int, partial) Hashtbl.t; (* (src, msg_id) -> partial *)
  mutable open_ : bool;
}

and t = {
  seg : Simnet.Segment.t;
  node : Simnet.Node.t;
  channels : (int, channel) Hashtbl.t;
  mutable sent : int;
  mutable received : int;
}

exception No_channel_left

let ports : (int * int, t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset ports)

let node t = t.node
let segment t = t.seg

let max_channels t =
  match (Simnet.Segment.model t.seg).Simnet.Linkmodel.class_ with
  | Simnet.Linkmodel.San ->
    if (Simnet.Segment.model t.seg).Simnet.Linkmodel.name = "SCI" then 1 else 2
  | Simnet.Linkmodel.Loop -> 8
  | Simnet.Linkmodel.Lan | Simnet.Linkmodel.Wan | Simnet.Linkmodel.Lossy_wan ->
    invalid_arg "Gm.attach: GM requires a SAN or loopback segment"

let handle_frag t (pkt : Simnet.Packet.t) =
  match pkt.Simnet.Packet.content with
  | Gm_frag f ->
    (match Hashtbl.find_opt t.channels f.chan with
     | None -> () (* channel closed: hardware drops silently *)
     | Some ch ->
       let key = (pkt.Simnet.Packet.src, f.msg_id) in
       let partial =
         match Hashtbl.find_opt ch.partials key with
         | Some p -> p
         | None ->
           let p =
             { buffer = Bytebuf.create f.total; received = 0;
               nfrags = f.nfrags }
           in
           Hashtbl.replace ch.partials key p;
           p
       in
       (* DMA placement into the posted buffer: no host copy counted. *)
       let off = f.frag * (Simnet.Segment.model t.seg).Simnet.Linkmodel.mtu in
       Bytebuf.blit_dma ~src:f.data ~src_off:0 ~dst:partial.buffer
         ~dst_off:off ~len:(Bytebuf.length f.data);
       partial.received <- partial.received + 1;
       (* Per-fragment completion handling costs host CPU. *)
       Simnet.Node.cpu_async t.node Calib.gm_recv_ns (fun () ->
           if partial.received = partial.nfrags
              && Hashtbl.mem ch.partials key then begin
             Hashtbl.remove ch.partials key;
             t.received <- t.received + 1;
             match ch.recv with
             | Some f -> f ~src:pkt.Simnet.Packet.src partial.buffer
             | None -> ()
           end))
  | _ -> ()

let attach seg node =
  let key = (Simnet.Segment.uid seg, Simnet.Node.id node) in
  match Hashtbl.find_opt ports key with
  | Some t -> t
  | None ->
    let t =
      { seg; node; channels = Hashtbl.create 4; sent = 0; received = 0 }
    in
    ignore (max_channels t); (* validates the segment class *)
    Simnet.Segment.set_handler seg node ~proto:Simnet.Packet.Proto.gm
      (handle_frag t);
    Hashtbl.replace ports key t;
    t

let open_channel t ~id =
  if id < 0 || id >= max_channels t then raise No_channel_left;
  if Hashtbl.mem t.channels id then
    invalid_arg (Printf.sprintf "Gm.open_channel: channel %d already open" id);
  let ch =
    { port = t; id; recv = None; next_msg_id = 0;
      partials = Hashtbl.create 8; open_ = true }
  in
  Hashtbl.replace t.channels id ch;
  ch

let close_channel ch =
  if ch.open_ then begin
    ch.open_ <- false;
    Hashtbl.remove ch.port.channels ch.id
  end

let channel_id ch = ch.id

let channels_in_use t = Hashtbl.length t.channels

let set_recv ch f = ch.recv <- Some f

(* Read [len] logical bytes starting at stream offset [off] from an iovec.
   Single-slice views avoid copies; a fragment straddling iovec entries is
   gathered by the NIC (uncounted DMA blit). *)
let iovec_slice iov ~off ~len =
  let out = ref None in
  let gathered = ref None in
  let written = ref 0 in
  let pos = ref 0 in
  List.iter
    (fun part ->
       let plen = Bytebuf.length part in
       let lo = max off !pos and hi = min (off + len) (!pos + plen) in
       if hi > lo then begin
         let piece = Bytebuf.sub part (lo - !pos) (hi - lo) in
         (match (!out, !gathered) with
          | None, None when hi - lo = len -> out := Some piece
          | None, None ->
            let g = Bytebuf.create len in
            Bytebuf.blit_dma ~src:piece ~src_off:0 ~dst:g ~dst_off:0
              ~len:(hi - lo);
            written := hi - lo;
            gathered := Some g
          | _, Some g ->
            Bytebuf.blit_dma ~src:piece ~src_off:0 ~dst:g ~dst_off:!written
              ~len:(hi - lo);
            written := !written + (hi - lo)
          | Some _, _ -> assert false)
       end;
       pos := !pos + plen)
    iov;
  match (!out, !gathered) with
  | Some b, _ -> b
  | _, Some g -> g
  | None, None -> Bytebuf.create 0

let sendv ch ~dst iov =
  if not ch.open_ then invalid_arg "Gm.send: channel is closed";
  let t = ch.port in
  let mtu = (Simnet.Segment.model t.seg).Simnet.Linkmodel.mtu in
  let total = List.fold_left (fun acc b -> acc + Bytebuf.length b) 0 iov in
  let nfrags = if total = 0 then 1 else (total + mtu - 1) / mtu in
  let msg_id = ch.next_msg_id in
  ch.next_msg_id <- ch.next_msg_id + 1;
  t.sent <- t.sent + 1;
  for frag = 0 to nfrags - 1 do
    let off = frag * mtu in
    let len = min mtu (total - off) in
    let data = iovec_slice iov ~off ~len in
    (* Each fragment costs a DMA-post on the host CPU, then hits the wire. *)
    Simnet.Node.cpu_async t.node Calib.gm_send_ns (fun () ->
        Simnet.Segment.send t.seg
          (Simnet.Packet.make ~src:(Simnet.Node.id t.node) ~dst
             ~proto:Simnet.Packet.Proto.gm ~size:len
             (Gm_frag { chan = ch.id; msg_id; frag; nfrags; total; data })))
  done

let send ch ~dst payload = sendv ch ~dst [ payload ]

let messages_sent t = t.sent
let messages_received t = t.received
