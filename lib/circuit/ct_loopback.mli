(** Intra-node Circuit adapter: rank-to-self link (also used when two ranks
    share a node). *)

val bind : Ct.t -> ranks:int list -> unit
(** Bind the links towards [ranks] to one shared loopback adapter. Every
    rank in [ranks] must live on the same node as the local rank. *)

val adapter_name : string
