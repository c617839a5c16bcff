(* host-loopback: the Host backend on a real loopback TCP pair. One client
   connection (selector -> SysIO -> Hostio.Stream) runs a closed-loop 64 B
   Vio ping-pong, then a bulk stream on the same connection. Here wall
   clock is the stack's own latency: Hostio.Loop, real syscalls, no
   simulator engine. *)

module Bb = Engine.Bytebuf
module Vio = Personalities.Vio
module Loop = Hostio.Loop
module Spans = Meter.Spans
module Samples = Meter.Samples

let msg = 64
let warm = 200
let iters = 5_000
let bulk_chunk = 65_536
let bulk_total = 64 * 1_048_576
let port = 4500
let deadline_ns = 60_000_000_000

let rep ~seed (h : Wl.hooks) =
  let payloads = Array.init iters (fun i -> Wl.patterned msg ~seed:(seed + i)) in
  let chunk = Wl.patterned bulk_chunk ~seed:(seed * 3) in
  let t0 = Meter.now_ns () in
  let grid = Padico.create ~seed ~backend:Padico.Host () in
  let loop = Option.get (Padico.loop grid) in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.gigabit_lan [ a; b ]);
  (* Server: echo warm + iters messages, then sink the bulk stream. *)
  let echo_bad = ref 0 and rx = ref 0 and rx_first = ref 0 and rx_t0 = ref 0 and rx_t1 = ref 0 in
  Padico.listen grid b ~port (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"echo" (fun () ->
             let buf = Bb.create msg in
             for _ = 1 to warm + iters do
               if Vio.read_exact vl buf then ignore (Vio.write vl buf) else incr echo_bad
             done;
             let sink = Bb.create bulk_chunk in
             let rec drain () =
               let n = Vio.read vl sink in
               if n > 0 then begin
                 let now = Meter.now_ns () in
                 if !rx = 0 then begin rx_t0 := now; rx_first := n end;
                 rx := !rx + n;
                 rx_t1 := now;
                 drain ()
               end
             in
             drain ();
             Vio.close vl)));
  (* Client: connect and warm up inside set-up, then park until the
     runner starts the timed phase. *)
  let resume = ref None in
  let lat = Samples.create iters in
  let bad = ref 0 and sent = ref 0 in
  let io0 = ref (0, 0, 0) and io1 = ref (0, 0, 0) in
  let io () = (Loop.iterations loop, Loop.timers_fired loop, Loop.fd_events loop) in
  let client =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl =
          Spans.wrap "Padico.connect" (fun () -> Padico.connect grid ~src:a ~dst:b ~port)
        in
        (match Vio.connect_wait vl with Ok () -> () | Error e -> failwith e);
        let rbuf = Bb.create msg in
        for i = 1 to warm do
          ignore (Vio.write vl payloads.(i mod iters));
          ignore (Vio.read_exact vl rbuf)
        done;
        Engine.Proc.suspend (fun k ->
            resume := Some k;
            Loop.stop loop);
        io0 := io ();
        for i = 0 to iters - 1 do
          let sp = Spans.start ~op_id:i "op.rtt" in
          let t = Meter.now_ns () in
          let s = Spans.start ~parent_span:sp ~op_id:i "Vio.write" in
          ignore (Vio.write vl payloads.(i));
          Spans.stop s;
          let s = Spans.start ~parent_span:sp ~op_id:i "Vio.read_exact" in
          let ok = Vio.read_exact vl rbuf in
          Spans.stop s;
          Samples.add lat (Wl.us_of_ns (Meter.now_ns () - t));
          Spans.stop sp;
          if not (ok && Bb.equal rbuf payloads.(i)) then incr bad
        done;
        io1 := io ();
        while !sent < bulk_total do
          let s = Spans.start "Vio.write" in
          sent := !sent + Vio.write vl chunk;
          Spans.stop s
        done;
        Vio.close vl)
  in
  h.drive ~until:(Padico.now grid + deadline_ns) grid;
  let k = match !resume with Some k -> k | None -> failwith "host-loopback: set-up failed" in
  let setup_s = Meter.secs_since t0 in
  h.timed_start grid;
  let t1 = Meter.now_ns () in
  ignore (Loop.arm loop ~after_ns:0 (fun () -> k ()));
  h.drive ~until:(Padico.now grid + deadline_ns) grid;
  let wall_s = Meter.secs_since t1 in
  h.timed_end ();
  let client_failed = match Engine.Proc.result client with Some (Ok ()) -> false | _ -> true in
  let goodput = Wl.mb_s (!rx - !rx_first) (!rx_t1 - !rx_t0) in
  let bulk_ok = !rx = bulk_total && not client_failed in
  let ops = iters + 1 in
  let failed = !bad + !echo_bad + (iters - Samples.length lat) + if bulk_ok then 0 else 1 in
  let per_rtt (i1, t1, f1) (i0, t0, f0) =
    let n = float_of_int (max 1 (Samples.length lat)) in
    [ ("hostio.iterations_per_op", float_of_int (i1 - i0) /. n);
      ("hostio.timers_per_op", float_of_int (t1 - t0) /. n);
      ("hostio.fd_events_per_op", float_of_int (f1 - f0) /. n) ]
  in
  { Wl.setup_s; wall_s; ops; failed; lat = [ lat ]; pct = None; clock = `Wall;
    extra = [ ("goodput_mb_s", "MB/s", goodput) ];
    layer = per_rtt !io1 !io0;
    digest = Printf.sprintf "%d %d" !rx (Samples.length lat) }
