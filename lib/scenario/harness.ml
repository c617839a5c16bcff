(* Helpers every scenario shares: running a grid to completion, failing
   loudly on a crashed process, payload patterns and the two-network
   node pair the failover, flow-control and scheduling experiments use. *)

(* The engine's default seed: what a grid built without one runs with. *)
let seed = 42

let fail_on_error h =
  match Engine.Proc.result h with
  | Some (Error e) ->
    Printf.eprintf "bench process %s failed: %s\n%!" (Engine.Proc.name h)
      (Printexc.to_string e);
    exit 1
  | Some (Ok ()) | None -> ()

let run grid = Padico.run grid ~until:(Engine.Time.sec 3600)

let mb_s bytes ns = Engine.Stats.bandwidth_mb_s ~bytes_transferred:bytes ~elapsed_ns:ns

let pattern n seed =
  let b = Engine.Bytebuf.create n in
  Engine.Bytebuf.fill_pattern b ~seed;
  b

(* Two nodes sharing a Myrinet SAN ("san") and a fallback Fast-Ethernet
   LAN ("lan"). *)
let san_lan_pair ~seed ~backend =
  let grid = Padico.create ~seed ~backend () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let san =
    Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
  in
  let lan =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]
  in
  (grid, a, b, san, lan)
