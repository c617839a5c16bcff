module Stats = Engine.Stats

type scope = Global | Node of string | Link of string

type value =
  | Counter of Stats.Counter.t
  | Summary of Stats.Summary.t
  | Histogram of Stats.Histogram.t
  | Gauge of (unit -> float)

let scope_name = function
  | Global -> "global"
  | Node n -> "node:" ^ n
  | Link l -> "link:" ^ l

let tbl : (string * string, value) Hashtbl.t = Hashtbl.create 64
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset tbl)

let key scope name = (scope_name scope, name)

let find scope name = Hashtbl.find_opt tbl (key scope name)

let get_or_create scope name ~wrong ~make ~unwrap =
  match find scope name with
  | Some v ->
    (match unwrap v with
     | Some x -> x
     | None ->
       invalid_arg
         (Printf.sprintf "Metrics: %s/%s already registered as a %s"
            (scope_name scope) name wrong))
  | None ->
    let x, v = make () in
    Hashtbl.replace tbl (key scope name) v;
    x

let counter scope name =
  get_or_create scope name ~wrong:"non-counter"
    ~make:(fun () ->
        let c = Stats.Counter.create name in
        (c, Counter c))
    ~unwrap:(function Counter c -> Some c | _ -> None)

let summary scope name =
  get_or_create scope name ~wrong:"non-summary"
    ~make:(fun () ->
        let s = Stats.Summary.create () in
        (s, Summary s))
    ~unwrap:(function Summary s -> Some s | _ -> None)

let histogram scope name =
  get_or_create scope name ~wrong:"non-histogram"
    ~make:(fun () ->
        let h = Stats.Histogram.create () in
        (h, Histogram h))
    ~unwrap:(function Histogram h -> Some h | _ -> None)

let fresh_counter scope name =
  let c = Stats.Counter.create name in
  Hashtbl.replace tbl (key scope name) (Counter c);
  c

let fresh_summary scope name =
  let s = Stats.Summary.create () in
  Hashtbl.replace tbl (key scope name) (Summary s);
  s

let fresh_histogram scope name =
  let h = Stats.Histogram.create () in
  Hashtbl.replace tbl (key scope name) (Histogram h);
  h

let gauge scope name f = Hashtbl.replace tbl (key scope name) (Gauge f)

let scope_rank s =
  (* Global first, then nodes, then links. *)
  if s = "global" then 0
  else if String.length s >= 5 && String.sub s 0 5 = "node:" then 1
  else 2

let all () =
  let items =
    Hashtbl.fold
      (fun (sname, name) v acc -> (sname, name, v) :: acc)
      tbl []
  in
  let cmp (s1, n1, _) (s2, n2, _) =
    match compare (scope_rank s1) (scope_rank s2) with
    | 0 ->
      (match compare s1 s2 with 0 -> compare n1 n2 | c -> c)
    | c -> c
  in
  let items = List.sort cmp items in
  List.map
    (fun (sname, name, v) ->
       let scope =
         if sname = "global" then Global
         else
           match String.index_opt sname ':' with
           | Some i ->
             let tag = String.sub sname 0 i in
             let rest =
               String.sub sname (i + 1) (String.length sname - i - 1)
             in
             if tag = "node" then Node rest else Link rest
           | None -> Global
       in
       (scope, name, v))
    items

let reset () = Hashtbl.reset tbl
