(** First-class packing of the bundled data types.

    A value of {!t} wraps a [Data_type.S] module (specification
    {e and} generators) under a stable CLI key, so the scenario
    executor, the sweep engine, the CLI and the bench dispatch over all
    ten bundled types by list lookup plus one functor application — no
    per-type match arms. *)

type t

val pack : string -> (module Data_type.S) -> t
val key : t -> string
(** Stable CLI name, e.g. ["rmw-register"]. *)

val modl : t -> (module Data_type.S)

val spec_name : t -> string
(** The wrapped module's own [T.name]. *)

val all : t list
(** The ten bundled types: the nine scalar types plus the
    queue × register product. *)

val keys : string list
val find : string -> t option
