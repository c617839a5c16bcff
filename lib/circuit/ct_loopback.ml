module Bytebuf = Engine.Bytebuf

let adapter_name = "loopback"

(* Local registry so two circuit instances co-located on one node (distinct
   ranks, same node) can reach each other. *)
let local_instances : (int * string * int, Ct.t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset local_instances)

let register ct =
  Hashtbl.replace local_instances
    (Simnet.Node.uid (Ct.node ct), Ct.name ct, Ct.rank ct)
    ct

let bind ct ~ranks =
  register ct;
  let node = Ct.node ct in
  let uid = Simnet.Node.uid node in
  List.iter
    (fun dst ->
       if Simnet.Node.uid (Ct.node_of_rank ct dst) <> uid then
         invalid_arg "Ct_loopback.bind: destination rank is on another node")
    ranks;
  let src_rank = Ct.rank ct in
  let adapter =
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           let payload = Bytebuf.concat iov in
           Simnet.Node.cpu_async node 300 (fun () ->
               match
                 Hashtbl.find_opt local_instances (uid, Ct.name ct, dst)
               with
               | Some peer -> Ct.deliver peer ~src:src_rank payload
               | None -> ())) }
  in
  List.iter (fun dst -> Ct.set_link ct ~dst adapter) ranks
