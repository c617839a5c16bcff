(* edge-churn: the Gridgen.edge gateway (4 frontends, 16 client hosts, one
   VTHD WAN, SysIO edge mode) under an open loop of clients arriving on a
   seeded Poisson schedule. Of each arrival: 20 % send one Pareto(1.3)
   request, 5 % send one, close, re-dial and send a second, the rest hold
   an idle connection; independently, 1 in 80 first abandons a handshake
   half way. The frontends run Gridgen's length-prefixed serve loop.

   A request is timed from when it was due (its client's arrival, or the
   ack that triggered a re-dial) to the arrival of its ack, in virtual
   time; arrivals are scheduled on the virtual clock, so the generator is
   never late. *)

module Bb = Engine.Bytebuf
module Sysio = Netaccess.Sysio
module Tcp = Drivers.Tcp
module Gridgen = Scenario.Gridgen
module Spans = Meter.Spans
module Samples = Meter.Samples

let clients = 20_000
let mean_gap_ns = 12_500.0 (* 80 k arrivals per virtual second *)
let requester = 0.20
let churner = 0.05
let aborter = 1.0 /. 80.0
let tail = 1.3

type kind = Idle | Once | Churn

let rep ~seed (h : Wl.hooks) =
  (* The arrival schedule, client kinds and request sizes. *)
  let r = Wl.rng seed 0xed6e in
  let due = Array.make clients 0 in
  let t = ref 0.0 in
  for i = 0 to clients - 1 do
    t := !t +. Engine.Rng.exponential r ~mean:mean_gap_ns;
    due.(i) <- int_of_float !t
  done;
  let kind =
    Array.init clients (fun _ ->
        let u = Engine.Rng.float r 1.0 in
        if u < requester then Once else if u < requester +. churner then Churn else Idle)
  in
  let aborts = Array.init clients (fun _ -> Engine.Rng.bool r aborter) in
  let expected =
    Array.fold_left (fun a k -> a + match k with Idle -> 0 | Once -> 1 | Churn -> 2) 0 kind
  in
  (* Request sizes: the Pareto(64 B, tail) quantiles at evenly spaced
     levels, one per request, clamped to [64 B, 64 KB] as in
     Gridgen.pareto_size and dealt to requests in seeded order. Every seed
     gets the same size mix, so the share of requests larger than one
     TCP window — close to 1 % — does not move p99 from seed to seed;
     the seed moves who sends what, and when. *)
  let sizes =
    let a =
      Array.init expected (fun j ->
          let u = (float_of_int j +. 0.5) /. float_of_int expected in
          max 64 (min 65_536 (int_of_float (64.0 *. ((1.0 -. u) ** (-1.0 /. tail))))))
    in
    for j = expected - 1 downto 1 do
      let k = Engine.Rng.int r (j + 1) in
      let t = a.(j) in
      a.(j) <- a.(k);
      a.(k) <- t
    done;
    a
  in
  (* First request index of each client. *)
  let first_req = Array.make clients 0 in
  let next = ref 0 in
  Array.iteri
    (fun i k ->
       first_req.(i) <- !next;
       next := !next + match k with Idle -> 0 | Once -> 1 | Churn -> 2)
    kind;
  let t0 = Meter.now_ns () in
  let e =
    Spans.wrap "Gridgen.edge" (fun () ->
        Gridgen.edge ~seed ~clients ~churn:churner ~tail ())
  in
  let grid = e.Gridgen.e_grid in
  let served = Atomic.make 0 in
  List.iter (Gridgen.serve_shard e served) e.Gridgen.e_shards;
  let shards = Array.of_list e.Gridgen.e_shards in
  let hosts = Array.of_list e.Gridgen.e_clients in
  let lat = Samples.create expected in
  let acked = ref 0 and established = ref 0 and resets = ref 0 in
  (* One client: dial, send one request per entry of [sz] (closing and
     re-dialling between them) or hold the connection idle when [sz] is
     empty; each request is timed from [due_ns]. *)
  let rec dial ~host ~shard ~sizes:(sz : int list) ~due_ns ~op =
    let sio = Sysio.get host in
    let stack = Sysio.stack_on sio e.Gridgen.e_wan in
    let clk = Simnet.Node.clock host in
    let total, rest =
      match sz with s :: rest -> (Gridgen.header_len + s, rest) | [] -> (0, [])
    in
    let sent = ref 0 and ack = ref 0 and counted = ref false in
    let conn = ref None in
    let push () =
      match !conn with
      | None -> ()
      | Some c ->
        let continue = ref true in
        while !continue && !sent < total do
          let n = min (Sysio.write_space c) (min (total - !sent) 4096) in
          if n = 0 then continue := false
          else begin
            let w =
              Sysio.write c (Gridgen.chunk ~total:(total - Gridgen.header_len) ~off:!sent n)
            in
            sent := !sent + w;
            if w = 0 then continue := false
          end
        done
    in
    let s = Spans.start ~op_id:op "Sysio.connect" in
    let c =
      Sysio.connect ~sndbuf:e.Gridgen.e_bufsize ~rcvbuf:e.Gridgen.e_bufsize sio stack
        ~dst:(Simnet.Node.id shard) ~port:e.Gridgen.e_port (fun c ev ->
            match ev with
            | Tcp.Established ->
              incr established;
              push ()
            | Tcp.Writable -> push ()
            | Tcp.Readable ->
              let continue = ref true in
              while !continue do
                match Sysio.read c ~max:4096 with
                | None -> continue := false
                | Some b -> ack := !ack + Bb.length b
              done;
              if (not !counted) && !ack >= 4 && !sent >= total && total > 0 then begin
                counted := true;
                incr acked;
                let now = Engine.Clock.now clk in
                Samples.add lat (Wl.us_of_ns (now - due_ns));
                if rest <> [] then begin
                  Sysio.unwatch sio c;
                  Sysio.close c;
                  dial ~host ~shard ~sizes:rest ~due_ns:now ~op
                end
              end
            | Tcp.Peer_closed ->
              Sysio.unwatch sio c;
              Sysio.close c
            | Tcp.Reset ->
              incr resets;
              Sysio.unwatch sio c)
    in
    Spans.stop s;
    conn := Some c
  in
  let base = ref 0 in
  let start i () =
    let host = hosts.(i mod Array.length hosts) in
    let shard = shards.(i mod Array.length shards) in
    let sz =
      match kind.(i) with
      | Idle -> []
      | Once -> [ sizes.(first_req.(i)) ]
      | Churn -> [ sizes.(first_req.(i)); sizes.(first_req.(i) + 1) ]
    in
    let go () = dial ~host ~shard ~sizes:sz ~due_ns:(!base + due.(i)) ~op:i in
    if aborts.(i) then begin
      (* Give up half way through a handshake, then dial for real. *)
      let sio = Sysio.get host in
      let stack = Sysio.stack_on sio e.Gridgen.e_wan in
      let c =
        Sysio.connect sio stack ~dst:(Simnet.Node.id shard) ~port:e.Gridgen.e_port
          (fun _ _ -> ())
      in
      Engine.Clock.after (Simnet.Node.clock host) 1_000 (fun () ->
          Sysio.abort c;
          Sysio.unwatch sio c;
          go ())
    end
    else go ()
  in
  (* Lazy set-up: every client host dials every frontend once and gets one
     request acked, so TCP stacks, listeners' accept paths and SysIO
     readiness sources exist before the first timed arrival. *)
  let warm = ref 0 in
  Array.iter
    (fun host ->
       Array.iter
         (fun shard ->
            let sio = Sysio.get host in
            let stack = Sysio.stack_on sio e.Gridgen.e_wan in
            ignore
              (Sysio.connect sio stack ~dst:(Simnet.Node.id shard) ~port:e.Gridgen.e_port
                (fun c ev ->
                   match ev with
                   | Tcp.Established ->
                     ignore (Sysio.write c (Gridgen.chunk ~total:0 ~off:0 Gridgen.header_len))
                   | Tcp.Readable ->
                     (match Sysio.read c ~max:16 with
                      | Some _ -> incr warm; Sysio.unwatch sio c; Sysio.close c
                      | None -> ())
                   | _ -> ())))
         shards)
    hosts;
  h.drive grid;
  let nwarm = Array.length hosts * Array.length shards in
  if !warm <> nwarm then failwith "edge-churn: set-up connections did not complete";
  let served0 = Atomic.get served in
  let setup_s = Meter.secs_since t0 in
  h.timed_start grid;
  let t1 = Meter.now_ns () in
  let clk0 = Simnet.Node.clock hosts.(0) in
  base := Engine.Clock.now clk0;
  Array.iteri (fun i d -> Engine.Clock.after clk0 d (fun () -> start i ())) due;
  h.drive grid;
  let wall_s = Meter.secs_since t1 in
  h.timed_end ();
  let served = Atomic.get served - served0 in
  let idle_dials = Array.fold_left (fun a k -> if k = Idle then a + 1 else a) 0 kind in
  (* Every request acked and counted served; every idle client
     established. *)
  let req_failed = (expected - !acked) + abs (served - !acked) in
  let conn_expected = clients + Array.fold_left (fun a k -> if k = Churn then a + 1 else a) 0 kind in
  let conn_failed = max 0 (conn_expected - !established) in
  { Wl.setup_s; wall_s; ops = expected + idle_dials; failed = req_failed + conn_failed;
    lat = [ lat ]; pct = None; clock = `Virtual; extra = []; layer = [];
    digest =
      Printf.sprintf "%d %d %d %d %d %s" (Engine.Clock.now clk0) !acked served !established
        !resets
        (String.concat "," (List.map (fun p ->
             match Meter.percentile (Samples.sorted [ lat ]) p with
             | Some v -> Printf.sprintf "%.17g" v | None -> "-") [ 50.0; 99.0 ])) }
