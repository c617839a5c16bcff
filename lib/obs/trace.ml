type record = {
  ts : int;
  dur : int;
  node : string;
  seq : int;
  ev : Event.t;
}

type state = {
  mutable buf : record option array;
  mutable head : int;  (* next write position *)
  mutable written : int;  (* total records ever written since clear *)
  mutable seq : int;
  mutable enabled : bool;
}

let default_capacity = 65_536

let st =
  { buf = [||]; head = 0; written = 0; seq = 0; enabled = false }

let on () = st.enabled

let clear () =
  Array.fill st.buf 0 (Array.length st.buf) None;
  st.head <- 0;
  st.written <- 0;
  st.seq <- 0

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  if Array.length st.buf <> capacity then st.buf <- Array.make capacity None;
  clear ();
  st.enabled <- true

let disable () = st.enabled <- false

let capacity () = Array.length st.buf

let add ~ts ~dur ~node ev =
  let cap = Array.length st.buf in
  if cap > 0 then begin
    let seq = st.seq in
    st.seq <- seq + 1;
    st.buf.(st.head) <- Some { ts; dur; node; seq; ev };
    st.head <- (st.head + 1) mod cap;
    st.written <- st.written + 1
  end

let now node = Engine.Clock.now (Simnet.Node.clock node)

let instant node ev =
  add ~ts:(now node) ~dur:(-1) ~node:(Simnet.Node.name node) ev

let complete node ~since ev =
  let t = now node in
  let since = if since > t then t else since in
  add ~ts:since ~dur:(t - since) ~node:(Simnet.Node.name node) ev

type span = No_span | Span of { sp_node : Simnet.Node.t; sp_ts : int; sp_ev : Event.t }

let null_span = No_span

let begin_span node ev =
  if st.enabled then Span { sp_node = node; sp_ts = now node; sp_ev = ev }
  else No_span

let end_span = function
  | No_span -> ()
  | Span { sp_node; sp_ts; sp_ev } ->
    if st.enabled then complete sp_node ~since:sp_ts sp_ev

let length () = Stdlib.min st.written (Array.length st.buf)

let dropped () = Stdlib.max 0 (st.written - Array.length st.buf)

let records () =
  let cap = Array.length st.buf in
  if cap = 0 || st.written = 0 then []
  else begin
    let len = length () in
    (* Oldest record: at 0 until the ring wraps, then at [head]. *)
    let start = if st.written <= cap then 0 else st.head in
    List.init len (fun i ->
        match st.buf.((start + i) mod cap) with
        | Some r -> r
        | None -> assert false)
  end
