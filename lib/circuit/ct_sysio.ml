module Bytebuf = Engine.Bytebuf
module Tcp = Drivers.Tcp
module Sysio = Netaccess.Sysio
module Streamq = Vlink.Streamq

let adapter_name = "sysio"

(* Inbound connection: HELLO [u16 src-rank], then frames [u32 len | bytes]. *)

let frame_hdr = 4

type rx_state = {
  pending : Streamq.t;
  mutable src_rank : int option;
  mutable want : int option;
}

let rx_pump ct st conn =
  let rec drain () =
    match Sysio.read conn ~max:65_536 with
    | Some data ->
      Streamq.push st.pending data;
      drain ()
    | None -> ()
  in
  drain ();
  let continue = ref true in
  while !continue do
    match (st.src_rank, st.want) with
    | None, _ ->
      if Streamq.length st.pending >= 2 then
        st.src_rank <-
          Some (Bytebuf.get_u16 (Streamq.pop_exact st.pending 2) 0)
      else continue := false
    | Some _, None ->
      if Streamq.length st.pending >= frame_hdr then
        st.want <- Some (Bytebuf.get_u32 (Streamq.pop_exact st.pending frame_hdr) 0)
      else continue := false
    | Some src, Some len ->
      if Streamq.length st.pending >= len then begin
        let payload = Streamq.pop_exact st.pending len in
        st.want <- None;
        Ct.deliver ct ~src payload
      end
      else continue := false
  done

(* Outbound link: lazy connection with an elastic pending queue flushed on
   Writable. *)
type tx_state = {
  outq : Streamq.t;
  mutable conn : Sysio.conn option;
  mutable established : bool;
}

let tx_flush tx =
  match (tx.conn, tx.established) with
  | Some conn, true ->
    let continue = ref true in
    while !continue do
      let space = Sysio.write_space conn in
      if space <= 0 then continue := false
      else
        match Streamq.pop tx.outq ~max:space with
        | Some chunk ->
          let n = Sysio.write conn chunk in
          (* [space] bounds the pop, so the write cannot be partial. *)
          assert (n = Bytebuf.length chunk);
          if Streamq.is_empty tx.outq then continue := false
        | None -> continue := false
    done
  | _ -> ()

let bind ct sio stack ~port ~ranks =
  (* A port the connection key cannot hold would also raise below and be
     taken for an existing listener: refuse it here, loudly. *)
  if port < 0 || port > Tcp.max_port then
    invalid_arg
      (Printf.sprintf "Ct_sysio.bind: port %d outside [0, %d]" port
         Tcp.max_port);
  (* Accept side (idempotent: Tcp.listen raises if bound — tolerate). *)
  (try
     Sysio.listen sio stack ~port (fun conn ->
         let st =
           { pending = Streamq.create (); src_rank = None; want = None }
         in
         Sysio.watch sio conn (function
           | Tcp.Readable -> rx_pump ct st conn
           | Tcp.Peer_closed | Tcp.Reset ->
             (* Transport lost after the peer identified itself: report it
                so a failure detector can confirm the death immediately.
                No-op on circuits without a peer-down handler. *)
             (match st.src_rank with
              | Some src -> Ct.peer_down ct ~rank:src
              | None -> ())
           | Tcp.Established | Tcp.Writable -> ());
         (* The accept callback is dispatched through the NetAccess queue,
            so under a connection storm data segments can arrive — and fire
            their Readable events into the not-yet-installed watcher —
            before this handler runs. Drain whatever is already buffered. *)
         rx_pump ct st conn)
   with Invalid_argument _ -> ());
  (* One adapter for every peer reached over this stack. Per-destination
     queue and connection materialize on first send, in a member-local
     table: grid-scale groups bind thousands of links per node while each
     node actually talks to a handful of tree neighbours. *)
  let txs : (int, tx_state) Hashtbl.t = Hashtbl.create 8 in
  let ensure_tx dst =
    match Hashtbl.find_opt txs dst with
    | Some tx -> tx
    | None ->
      let tx = { outq = Streamq.create (); conn = None; established = false } in
      Hashtbl.replace txs dst tx;
      let dst_node = Simnet.Node.id (Ct.node_of_rank ct dst) in
      let conn =
        Sysio.connect sio stack ~dst:dst_node ~port (fun conn ev ->
            match ev with
            | Tcp.Established ->
              tx.established <- true;
              let hello = Bytebuf.create 2 in
              Bytebuf.set_u16 hello 0 (Ct.rank ct);
              ignore (Sysio.write conn hello);
              tx_flush tx
            | Tcp.Writable -> tx_flush tx
            | Tcp.Peer_closed | Tcp.Reset ->
              tx.established <- false;
              Ct.peer_down ct ~rank:dst
            | Tcp.Readable -> ())
      in
      tx.conn <- Some conn;
      tx
  in
  let adapter =
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           let tx = ensure_tx dst in
           let len = List.fold_left (fun a b -> a + Bytebuf.length b) 0 iov in
           let hdr = Bytebuf.create frame_hdr in
           Bytebuf.set_u32 hdr 0 len;
           Streamq.push tx.outq hdr;
           List.iter (Streamq.push tx.outq) iov;
           tx_flush tx) }
  in
  List.iter (fun dst -> Ct.set_link ct ~dst adapter) ranks
