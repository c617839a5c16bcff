(* E12 scheduling and aggregation: 64 B MadIO traffic on Myrinet. A
   one-way burst and a lone message measure small-message aggregation;
   a ping-pong beside one watched-but-silent LAN socket measures what
   the dispatcher policy charges for idle SysIO polls. *)

module Bb = Engine.Bytebuf
module Madio = Netaccess.Madio
module Na = Netaccess.Na_core
module Sysio = Netaccess.Sysio

let msg_size = 64

(* A Myrinet pair under [policy]. [agg_budget_ns] = [Some b] turns on
   sender-side coalescing with budget [b] (and batch decoding at the
   receiver); [None] leaves aggregation off. *)
let madio_pair ~seed ~policy ~agg_budget_ns =
  let grid = Padico.create ~seed () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let seg = Padico.add_segment grid Simnet.Presets.myrinet2000 [ a; b ] in
  Na.set_policy (Na.get a) policy;
  Na.set_policy (Na.get b) policy;
  let ma = Padico.madio grid a seg and mb = Padico.madio grid b seg in
  (match agg_budget_ns with
   | Some budget_ns ->
     Madio.set_aggregation ma ~budget_ns true;
     Madio.set_aggregation mb true
   | None -> ());
  (grid, b, Madio.open_lchannel ma ~id:1, Madio.open_lchannel mb ~id:1, ma)

type burst = {
  elapsed_ns : int;  (* first send -> last delivery *)
  checksum : int;  (* payload delivered: the goodput witness *)
  sender : Madio.t;  (* its aggregation counters *)
}

let burst ~seed ~policy ~agg_budget_ns ~count =
  let grid, b, la, lb, ma = madio_pair ~seed ~policy ~agg_budget_ns in
  let got = ref 0 and sum = ref 0 in
  let t0 = ref 0 and t1 = ref 0 in
  Madio.set_recv lb (fun ~src:_ buf ->
      incr got;
      sum := !sum + Bb.checksum buf;
      if !got = count then t1 := Padico.now grid);
  ignore
    (Padico.spawn grid (Madio.node ma) ~name:"burst-src" (fun () ->
         t0 := Padico.now grid;
         for i = 1 to count do
           Madio.send la ~dst:(Simnet.Node.id b) (Harness.pattern msg_size i)
         done));
  Harness.run grid;
  if !got < count then failwith "e12: burst incomplete";
  { elapsed_ns = !t1 - !t0; checksum = !sum; sender = ma }

(* Worst-case small-message latency under a coalescing budget: a lone
   message with no batch-mates waits out the whole budget. *)
let lone_latency ~agg_budget_ns =
  let grid, b, la, lb, ma =
    madio_pair ~seed:Harness.seed ~policy:Na.default_policy ~agg_budget_ns
  in
  let t0 = ref 0 and t1 = ref (-1) in
  Madio.set_recv lb (fun ~src:_ _ -> t1 := Padico.now grid);
  ignore
    (Padico.spawn grid (Madio.node ma) ~name:"lone-src" (fun () ->
         t0 := Padico.now grid;
         Madio.send la ~dst:(Simnet.Node.id b) (Harness.pattern msg_size 1)));
  Harness.run grid;
  if !t1 < 0 then failwith "e12: lone message lost";
  !t1 - !t0

type polling = {
  pp_ns : int;  (* virtual time at the last round trip's return *)
  idle_polls : int;  (* the sender's charged idle SysIO polls *)
  a : Simnet.Node.t;
  b : Simnet.Node.t;
}

(* [iters] MadIO ping-pongs on the SAN while one idle TCP connection sits
   watched on the LAN. *)
let polling ~seed ~policy ~iters =
  let grid, a, b, san, lan = Harness.san_lan_pair ~seed ~backend:Padico.Sim in
  Na.set_policy (Na.get a) policy;
  Na.set_policy (Na.get b) policy;
  let sa = Sysio.get a and sb = Sysio.get b in
  let stack_a = Sysio.stack_on sa lan and stack_b = Sysio.stack_on sb lan in
  Sysio.listen sb stack_b ~port:80 (fun conn ->
      Sysio.watch sb conn (fun _ -> ()));
  ignore
    (Sysio.connect sa stack_a ~dst:(Simnet.Node.id b) ~port:80 (fun _ _ -> ()));
  let ma = Padico.madio grid a san and mb = Padico.madio grid b san in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let rounds = ref 0 in
  let t1 = ref 0 in
  Madio.set_recv lb (fun ~src buf -> Madio.send lb ~dst:src buf);
  Madio.set_recv la (fun ~src:_ _ ->
      incr rounds;
      if !rounds < iters then
        Madio.send la ~dst:(Simnet.Node.id b)
          (Harness.pattern msg_size !rounds)
      else t1 := Padico.now grid);
  Madio.send la ~dst:(Simnet.Node.id b) (Harness.pattern msg_size 0);
  Harness.run grid;
  if !rounds < iters then failwith "e12: ping-pong incomplete";
  { pp_ns = !t1; idle_polls = Na.polls_idle (Na.get a); a; b }
