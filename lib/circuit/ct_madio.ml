module Madio = Netaccess.Madio

let adapter_name = "madio"

let bind ct mio ~lchannel_id ~ranks =
  let lchan = Madio.open_lchannel mio ~id:lchannel_id in
  Madio.set_recv lchan (fun ~src payload ->
      match Ct.rank_of_node_id ct src with
      | Some rank -> Ct.deliver ct ~src:rank payload
      | None -> ());
  (* One adapter for every peer on this channel. *)
  let adapter =
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           Madio.sendv lchan ~dst:(Simnet.Node.id (Ct.node_of_rank ct dst)) iov)
    }
  in
  List.iter (fun dst -> Ct.set_link ct ~dst adapter) ranks
