(** Binary min-heap priority queue for simulation events.

    Events are ordered by [(time, sequence)] where the sequence number is
    assigned on insertion; ties in time therefore pop in FIFO order, which
    makes simulation runs deterministic.

    The heap is flat — four parallel arrays instead of an array of
    entry records — so {!push} and {!pop_min} allocate nothing; the
    simulator's main loop runs one push and one pop per dispatched
    event. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> ?priority:int -> time:Rat.t -> 'a -> unit
(** Insert an event.  Events are ordered by [(time, priority, seq)]:
    lower [priority] values pop first among equal times (default [1]).
    The engine uses priority [0] for message deliveries so that a
    message whose delay makes it arrive exactly when a timer fires is
    visible to the timer's handler — delays are drawn from the closed
    interval [[d - u, d]], so boundary arrivals are legitimate. *)

val push_class : 'a t -> priority:int -> time:Rat.t -> 'a -> unit
(** {!push} with the priority passed directly: a computed priority
    then allocates no option box. *)

val pop : 'a t -> (Rat.t * 'a) option
(** Remove and return the earliest event, FIFO among equal times. *)

val min_time : 'a t -> Rat.t
(** Time of the earliest event, without removing it and without
    allocating.  @raise Invalid_argument on an empty queue. *)

val min_priority : 'a t -> int
(** Priority of the earliest event, without removing it.
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload (the allocation-free
    variant of {!pop}; read {!min_time} first for the timestamp).
    @raise Invalid_argument on an empty queue. *)

val peek_time : 'a t -> Rat.t option

val is_empty : 'a t -> bool

val length : 'a t -> int
