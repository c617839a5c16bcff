module Registry = Registry
module Net = Simnet.Net
module Node = Simnet.Node
module Segment = Simnet.Segment
module Linkmodel = Simnet.Linkmodel
module Sysio = Netaccess.Sysio
module Madio = Netaccess.Madio
module Vl = Vlink.Vl
module Ct = Circuit.Ct
module Prefs = Selector.Prefs
module Sel = Selector

let log = Logs.Src.create "padico"

module Log = (val Logs.src_log log : Logs.LOG)

type backend = Sim | Host

type t = {
  pnet : Net.t;
  pbackend : backend;
  ploop : Hostio.Loop.t option; (* the reactor when [pbackend = Host] *)
  mutable pprefs : Prefs.t;
  mutable next_lchan : int; (* MadIO logical channels for circuits *)
  mutable next_circuit_port : int;
  mutable relays : Node.t list; (* gateways running the relay service *)
}

let pstream_port_offset = 10_000

let vrp_port_offset = 20_000

let register_builtins () =
  let e name kind description paradigm =
    Registry.register { Registry.name; kind; description; paradigm }
  in
  e "gm" Registry.Driver "GM-like SAN message driver" `Parallel;
  e "tcp" Registry.Driver "TCP reliable stream" `Distributed;
  e "udp" Registry.Driver "UDP datagrams" `Distributed;
  e "madeleine" Registry.Driver "Madeleine portable SAN library" `Parallel;
  e "madio" Registry.Adapter "NetAccess multiplexed SAN access" `Both;
  e "sysio" Registry.Adapter "NetAccess arbitrated socket access" `Both;
  e "loopback" Registry.Adapter "intra-node adapter" `Both;
  e "pstream" Registry.Adapter "parallel TCP streams on WAN" `Distributed;
  e "adoc" Registry.Adapter "adaptive online compression" `Distributed;
  e "vrp" Registry.Adapter "tunable-loss datagram stream" `Distributed;
  e "crypto" Registry.Adapter "cipher on untrusted links" `Distributed;
  e "vio" Registry.Personality "socket-like API over VLink" `Distributed;
  e "syswrap" Registry.Personality "100% socket-compliant wrapper" `Distributed;
  e "aio" Registry.Personality "POSIX.2 asynchronous I/O" `Distributed;
  e "fm" Registry.Personality "FastMessage 2.0 API over Circuit" `Parallel;
  e "madpers" Registry.Personality "virtual Madeleine over Circuit" `Parallel

let create ?seed ?(prefs = Prefs.default) ?(backend = Sim) () =
  register_builtins ();
  let ploop, clock =
    match backend with
    | Sim -> (None, None)
    | Host ->
      let l = Hostio.Loop.create () in
      (Some l, Some (Hostio.Loop.clock l))
  in
  { pnet = Net.create ?seed ?clock (); pbackend = backend; ploop;
    pprefs = prefs; next_lchan = 1; next_circuit_port = 7_000; relays = [] }

let net t = t.pnet
let sim t = Net.sim t.pnet
let backend t = t.pbackend
let loop t = t.ploop
let prefs t = t.pprefs
let set_prefs t p = t.pprefs <- p

let add_node t name = Net.add_node t.pnet name

let add_segment t model ?name nodes = Net.add_segment t.pnet model ?name nodes

let sysio node = Sysio.get node

let madio _t node seg = Madio.init (Madeleine.Mad.init seg node)

let is_san seg =
  (Segment.model seg).Linkmodel.class_ = Linkmodel.San

let is_ip seg =
  match (Segment.model seg).Linkmodel.class_ with
  | Linkmodel.Lan | Linkmodel.Wan | Linkmodel.Lossy_wan -> true
  | Linkmodel.San | Linkmodel.Loop -> false

let node_segments t node = Net.segments_of t.pnet node

let wrap_by_policy t seg vl =
  let m = Segment.model seg in
  let p = t.pprefs in
  let vl =
    if p.Prefs.adoc_on_slow
       && m.Linkmodel.bandwidth_bps <= p.Prefs.adoc_threshold_bps
    then Vlink.Vl_adoc.wrap ~link_bandwidth_bps:m.Linkmodel.bandwidth_bps vl
    else vl
  in
  if p.Prefs.cipher_untrusted && not m.Linkmodel.trusted then
    Vlink.Vl_crypto.wrap ~key:(Methods.Crypto.key_of_string p.Prefs.cipher_key)
      vl
  else vl

let listen t node ~port accept =
  Vlink.Vl_loopback.listen node ~port accept;
  List.iter
    (fun seg ->
       (* On the host backend every non-loop segment carries real stream
          sockets: SANs have no MadIO rendezvous and datagrams no UDP
          driver, so both collapse onto SysIO. *)
       if is_san seg && t.pbackend = Sim then
         Vlink.Vl_madio.listen (madio t node seg) ~port accept
       else if is_ip seg || (is_san seg && t.pbackend = Host) then begin
         let sio = sysio node in
         let stack = Sysio.stack_on sio seg in
         let accept_wrapped vl = accept (wrap_by_policy t seg vl) in
         Vlink.Vl_sysio.listen sio stack ~port accept_wrapped;
         Vlink.Vl_pstream.listen sio stack ~port:(port + pstream_port_offset)
           accept_wrapped;
         if t.pbackend = Sim then begin
           let udp = Sysio.udp_on sio seg in
           try
             Vlink.Vl_vrp.listen sio udp ~port:(port + vrp_port_offset)
               ~tolerance:t.pprefs.Prefs.vrp_tolerance accept
           with Invalid_argument _ -> ()
         end
       end)
    (node_segments t node)

let connect_choice t ~src ~dst = Sel.choose ~prefs:t.pprefs t.pnet ~src ~dst

(* The selector reasons over the modelled topology; on the host backend
   the SAN driver (MadIO) and the datagram protocol (VRP) have no real
   transport, so their choices are re-targeted to SysIO streams on the
   same segment. Wrapping and striping decisions survive the remap. *)
let remap_for_backend t choice =
  match (t.pbackend, choice.Sel.driver) with
  | Sim, _ | Host, ("loopback" | "sysio" | "pstream") -> choice
  | Host, _ -> { choice with Sel.driver = "sysio" }

let connect_direct t ~src ~dst ~port choice =
  let choice = remap_for_backend t choice in
  Log.debug (fun m ->
      m "connect %s -> %s port %d: %a" (Node.name src) (Node.name dst) port
        Sel.pp_choice choice);
  match (choice.Sel.driver, choice.Sel.segment) with
  | "loopback", _ -> Vlink.Vl_loopback.connect src ~port
  | "madio", Some seg -> Vlink.Vl_madio.connect (madio t src seg) ~dst ~port
  | "pstream", Some seg ->
    let sio = sysio src in
    let stack = Sysio.stack_on sio seg in
    let vl =
      Vlink.Vl_pstream.connect sio stack ~dst:(Node.id dst)
        ~port:(port + pstream_port_offset) ~streams:choice.Sel.streams
    in
    let vl =
      if choice.Sel.wrap_adoc then
        Vlink.Vl_adoc.wrap
          ~link_bandwidth_bps:(Segment.model seg).Linkmodel.bandwidth_bps vl
      else vl
    in
    if choice.Sel.wrap_crypto then
      Vlink.Vl_crypto.wrap
        ~key:(Methods.Crypto.key_of_string t.pprefs.Prefs.cipher_key) vl
    else vl
  | "vrp", Some seg ->
    let sio = sysio src in
    let udp = Sysio.udp_on sio seg in
    Vlink.Vl_vrp.connect sio udp ~dst:(Node.id dst)
      ~port:(port + vrp_port_offset) ~tolerance:choice.Sel.vrp_tolerance
      ~rate_bps:((Segment.model seg).Linkmodel.bandwidth_bps *. 0.95)
  | "sysio", Some seg ->
    let sio = sysio src in
    let stack = Sysio.stack_on sio seg in
    let vl = Vlink.Vl_sysio.connect sio stack ~dst:(Node.id dst) ~port in
    let vl =
      if choice.Sel.wrap_adoc then
        Vlink.Vl_adoc.wrap
          ~link_bandwidth_bps:(Segment.model seg).Linkmodel.bandwidth_bps vl
      else vl
    in
    if choice.Sel.wrap_crypto then
      Vlink.Vl_crypto.wrap
        ~key:(Methods.Crypto.key_of_string t.pprefs.Prefs.cipher_key) vl
    else vl
  | driver, _ ->
    failwith (Printf.sprintf "Padico.connect: unknown driver %S" driver)

(* ---------- relay tunnels (the paper's future work: "tunnels for
   full-connectivity through firewalls") ---------- *)

let relay_port = 7

(* Copy bytes from [src] to [dst] until EOF, then close the sink. *)
let splice node src dst =
  ignore
    (Simnet.Node.spawn node ~name:"relay-pump" (fun () ->
         let buf = Engine.Bytebuf.create 65_536 in
         let rec pump () =
           match Vl.await (Vl.post_read src buf) with
           | Vl.Done n ->
             (match
                Vl.await (Vl.post_write dst (Engine.Bytebuf.sub buf 0 n))
              with
              | Vl.Done _ -> pump ()
              | Vl.Again | Vl.Eof | Vl.Error _ -> Vl.close src)
           | Vl.Again | Vl.Eof | Vl.Error _ -> Vl.close dst
         in
         pump ()))

let rec connect_via_relay t ~src ~dst ~port =
  let reaches r other =
    Node.uid r = Node.uid other
    || Net.links_between t.pnet r other <> []
  in
  match
    List.find_opt (fun r -> reaches r src && reaches r dst) t.relays
  with
  | None ->
    failwith
      (Printf.sprintf
         "Padico.connect: no common network and no relay between %s and %s"
         (Node.name src) (Node.name dst))
  | Some gateway ->
    let vl = connect t ~src ~dst:gateway ~port:relay_port in
    (* CONNECT preamble: target node id and port. *)
    let hdr = Engine.Bytebuf.create 8 in
    Engine.Bytebuf.set_u32 hdr 0 (Node.id dst);
    Engine.Bytebuf.set_u32 hdr 4 port;
    ignore (Vl.post_write vl hdr);
    vl

and start_relay t node =
  if not (List.exists (fun r -> Node.uid r = Node.uid node) t.relays) then begin
    t.relays <- node :: t.relays;
    listen t node ~port:relay_port (fun inbound ->
        ignore
          (Simnet.Node.spawn node ~name:"relay" (fun () ->
               let hdr = Engine.Bytebuf.create 8 in
               let rec read_hdr filled =
                 if filled >= 8 then true
                 else
                   match
                     Vl.await
                       (Vl.post_read inbound
                          (Engine.Bytebuf.sub hdr filled (8 - filled)))
                   with
                   | Vl.Done n -> read_hdr (filled + n)
                   | Vl.Again | Vl.Eof | Vl.Error _ -> false
               in
               if read_hdr 0 then begin
                 let dst_id = Engine.Bytebuf.get_u32 hdr 0 in
                 let dst_port = Engine.Bytebuf.get_u32 hdr 4 in
                 match Net.node_by_id t.pnet dst_id with
                 | None -> Vl.close inbound
                 | Some target ->
                   let outbound = connect t ~src:node ~dst:target ~port:dst_port in
                   (match Vl.await_connected outbound with
                    | Ok () ->
                      splice node inbound outbound;
                      splice node outbound inbound
                    | Error _ -> Vl.close inbound)
               end)))
  end

and connect t ~src ~dst ~port =
  match connect_choice t ~src ~dst with
  | choice -> connect_with_choice t ~src ~dst ~port choice
  | exception Failure _ -> connect_via_relay t ~src ~dst ~port

and connect_with_choice t ~src ~dst ~port choice =
  connect_direct t ~src ~dst ~port choice

(* ---------- circuits ---------- *)

(* A pair's link is the first segment both ends share in the order
   [Net.links_between] ranks them, preferring SANs: the fastest common
   SAN, else the fastest common network. Per node, that is its segments
   sorted SANs first, then by decreasing bandwidth (stable over
   attachment order). *)
let link_preference t node =
  List.stable_sort
    (fun s1 s2 ->
       match (is_san s1, is_san s2) with
       | true, false -> -1
       | false, true -> 1
       | _ ->
         compare
           (Segment.model s2).Linkmodel.bandwidth_bps
           (Segment.model s1).Linkmodel.bandwidth_bps)
    (node_segments t node)

(* A segment some member is attached to, with those members' ranks. *)
type seg_entry = { k : int; seg : Segment.t; mutable ranks : int list }

let circuit t ~name nodes =
  let group = Array.of_list nodes in
  let n = Array.length group in
  if n = 0 then invalid_arg "Padico.circuit: empty group";
  let lchan = t.next_lchan in
  t.next_lchan <- t.next_lchan + 1;
  if t.next_lchan >= 0xFFF0 then invalid_arg "Padico.circuit: out of channels";
  let port_base = t.next_circuit_port in
  (* one shared TCP port + one pstream port per directed pair *)
  t.next_circuit_port <- t.next_circuit_port + 1 + (n * n);
  let cts = Ct.create_all ~group ~name in
  let pair_port i j = port_base + 1 + (i * n) + j in
  (* Segment -> attached ranks, from one walk over each member's
     segments. A node's private loopback never links it to another node
     (co-located ranks are matched by node identity), so it is left out. *)
  let by_uid : (int, seg_entry) Hashtbl.t = Hashtbl.create 8 in
  let created = ref [] in
  let rec attach r own_loop = function
    | [] -> ()
    | seg :: rest ->
      let uid = Segment.uid seg in
      (if uid <> own_loop then
         match Hashtbl.find_opt by_uid uid with
         | Some e -> e.ranks <- r :: e.ranks
         | None ->
           let e = { k = Hashtbl.length by_uid; seg; ranks = [ r ] } in
           Hashtbl.replace by_uid uid e;
           created := e :: !created);
      attach r own_loop rest
  in
  for r = n - 1 downto 0 do
    attach r
      (Segment.uid (Net.loopback_of t.pnet group.(r)))
      (node_segments t group.(r))
  done;
  let entries = Array.of_list (List.rev !created) in
  (* Per-member scratch, reused across members: the chosen segment per
     peer, the peers grouped per segment, and the order in which each
     transport's segments first appear — the order their adapters bind. *)
  let choice = Array.make n (-1) in
  let bucket = Array.make (Array.length entries) [] in
  let madio_segs : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let sysio_segs : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let rec claim k = function
    | [] -> ()
    | j :: rest ->
      if choice.(j) < 0 then choice.(j) <- k;
      claim k rest
  in
  let prefer seg =
    match Hashtbl.find_opt by_uid (Segment.uid seg) with
    | Some e -> claim e.k e.ranks
    | None -> () (* the node's private loopback *)
  in
  let loopback = ref [] in
  let add_to segs k j =
    (match bucket.(k) with
     | [] -> Hashtbl.replace segs (Segment.uid entries.(k).seg) k
     | _ :: _ -> ());
    bucket.(k) <- j :: bucket.(k)
  in
  for i = 0 to n - 1 do
    let node_i = group.(i) in
    Array.fill choice 0 n (-1);
    List.iter prefer (link_preference t node_i);
    Hashtbl.reset madio_segs;
    Hashtbl.reset sysio_segs;
    loopback := [];
    for j = 0 to n - 1 do
      if j <> i then begin
        let node_j = group.(j) in
        if Node.uid node_i = Node.uid node_j then loopback := j :: !loopback
        else
          let k = choice.(j) in
          if k < 0 then
            failwith
              (Printf.sprintf
                 "Padico.circuit: no common network between %s and %s"
                 (Node.name node_i) (Node.name node_j));
          let seg = entries.(k).seg in
          if is_san seg then
            (* Host backend: the SAN pair rides SysIO streams too. *)
            add_to (if t.pbackend = Sim then madio_segs else sysio_segs) k j
          else if (Segment.model seg).Linkmodel.class_ = Linkmodel.Wan
               && t.pprefs.Prefs.pstream_on_wan
          then begin
            (* WAN link: circuit over a parallel-streams VLink. The lower
               rank connects, the higher accepts; the per-pair port
               disambiguates. *)
            let sio = sysio node_i in
            let stack = Sysio.stack_on sio seg in
            if i < j then begin
              let vl =
                Vlink.Vl_pstream.connect sio stack ~dst:(Node.id node_j)
                  ~port:(pair_port i j) ~streams:t.pprefs.Prefs.pstream_streams
              in
              Circuit.Ct_vlink.bind_link cts.(i) ~dst:j vl
            end
            else
              Vlink.Vl_pstream.listen sio stack ~port:(pair_port j i)
                (fun vl -> Circuit.Ct_vlink.bind_link cts.(i) ~dst:j vl)
          end
          else add_to sysio_segs k j
      end
    done;
    (match !loopback with
     | [] -> ()
     | ranks -> Circuit.Ct_loopback.bind cts.(i) ~ranks);
    Hashtbl.iter
      (fun _ k ->
         Circuit.Ct_madio.bind cts.(i) (madio t node_i entries.(k).seg)
           ~lchannel_id:lchan ~ranks:bucket.(k);
         bucket.(k) <- [])
      madio_segs;
    Hashtbl.iter
      (fun _ k ->
         let sio = sysio node_i in
         Circuit.Ct_sysio.bind cts.(i) sio (Sysio.stack_on sio entries.(k).seg)
           ~port:port_base ~ranks:bucket.(k);
         bucket.(k) <- [])
      sysio_segs
  done;
  cts

let run ?until t =
  match t.ploop with
  | None -> Net.run ?until t.pnet
  | Some l -> Hostio.Loop.run ?until_ns:until l

let now t = Engine.Clock.now (Net.clock t.pnet)

let reset () = Engine.Lifecycle.reset_registries ()

let spawn t node ?name f = Net.spawn t.pnet node ?name f
