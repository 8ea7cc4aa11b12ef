(** Operation timestamps (paper §5.1): the pair (local invocation clock
    time, invoking process id), ordered lexicographically.

    Process ids break ties, so timestamps of distinct operations are
    distinct; timestamps assigned at one process strictly increase
    because operations there are sequential and take positive time.
    Algorithm 1 executes all mutators in timestamp order at every
    replica. *)

type t = { time : Rat.t; proc : int }

val make : time:Rat.t -> proc:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val le : t -> t -> bool
val lt : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Mutable min-heaps keyed by timestamp: Algorithm 1's [To_Execute]
    priority queues and the total-order broadcast's delivery queue.
    A timestamp is bound at most once: adding one that is still queued
    replaces its value.  Nothing here allocates beyond the heap's
    occasional doubling. *)
module Heap : sig
  type key := t
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> key -> 'a -> unit
  (** Bind the timestamp to the value, replacing a binding still
      queued. *)

  val min_le : 'a t -> key -> bool
  (** Is the heap non-empty with its least timestamp at most [key]? *)

  val min_is : 'a t -> key -> bool
  (** Is the heap non-empty with least timestamp [key]? *)

  val pop : 'a t -> 'a
  (** Remove the least timestamp's binding and return its value.
      @raise Invalid_argument if the heap is empty. *)
end
