(* Lazy-insertion construction of a candidate linearization for
   container histories (queue, stack, priority queue).

   The kernel fixes an insertion order for the values (a linear
   extension of every precedence real time forces — each kernel picks
   the extension its shape wants) and this scheduler replays the
   history against an abstract container of that shape.  It keeps
   servicing the access point (head / top / max) — peeks of the value
   there, then its take — and grows the container only when real time
   {e forces} the next insertion: some operation of a pending value
   finishes before the current head operation starts (tracked as a
   suffix-minimum over insertion deadlines, since a forced late value
   drags every value ordered before it along).  Every operation emitted
   while an insertion stays deferred is then conflict-free against all
   of the deferred values' operations.  Empty observations fire
   whenever the container is empty; when the head carries no pending
   operation, inserting is the only way to make progress.

   The result is semantically legal by construction; the dispatcher
   still re-verifies it (replay + real-time sweep) before accepting.
   When no operation is enabled but work remains, the scheduler gives
   up with [Unknown] and the dispatcher falls back to Wing-Gong — the
   scheduler is sound but deliberately not complete. *)

type item = {
  cls : Record.value_class;
  put : Record.t;
  mutable peeks : Record.t list;  (** remaining, sorted by response *)
}

module Imap = Map.Make (Int)

type shape = Queue_shape | Stack_shape | Priority_shape

(* The abstract container, over item positions in the insertion order:
   a queue holds the positions [first, inserted) (items are inserted in
   position order), a stack a stack of positions, and a priority queue
   its positions keyed by value. *)
type container =
  | Fifo of { mutable first : int }
  | Lifo of { slots : int array; mutable size : int }
  | Prio of { mutable by_value : int Imap.t }

let create shape n =
  match shape with
  | Queue_shape -> Fifo { first = 0 }
  | Stack_shape -> Lifo { slots = Array.make n 0; size = 0 }
  | Priority_shape -> Prio { by_value = Imap.empty }

(* [insert c items i]: item [i] is the next in insertion order *)
let insert c (items : item array) i =
  match c with
  | Fifo _ -> ()
  | Lifo s ->
      s.slots.(s.size) <- i;
      s.size <- s.size + 1
  | Prio p -> p.by_value <- Imap.add items.(i).cls.Record.value i p.by_value

(* the position at the access point, or -1 when empty; [inserted] items
   have gone in so far *)
let head c ~inserted =
  match c with
  | Fifo q -> if q.first < inserted then q.first else -1
  | Lifo s -> if s.size > 0 then s.slots.(s.size - 1) else -1
  | Prio p -> (
      match Imap.max_binding_opt p.by_value with Some (_, i) -> i | None -> -1)

let remove_head c =
  match c with
  | Fifo q -> q.first <- q.first + 1
  | Lifo s -> s.size <- s.size - 1
  | Prio p ->
      p.by_value <- Imap.remove (fst (Imap.max_binding p.by_value)) p.by_value

let by_finish (a : Record.t) (b : Record.t) = Rat.compare a.finish b.finish

(* What the scheduler emits next. *)
type action = Insert | Peek | Take | Empty | Stuck

(* [run ~shape ~order ~empties]: [order] is the insertion sequence over
   value classes (every class has a put — the cheap patterns rejected
   fresh observations already). *)
let run ~shape ~(order : Record.value_class array)
    ~(empties : Record.t list) : Record.outcome =
  let items =
    Array.map
      (fun c ->
        {
          cls = c;
          put = Option.get c.Record.put;
          peeks = List.sort by_finish c.Record.peeks;
        })
      order
  in
  let n_items = Array.length items in
  let deadline it =
    let d = it.put.Record.finish in
    let d =
      match it.cls.Record.take with
      | Some (t : Record.t) -> Rat.min d t.finish
      | None -> d
    in
    List.fold_left (fun acc (p : Record.t) -> Rat.min acc p.finish) d it.peeks
  in
  (* earliest deadline among the insertions from [i] on: a later value
     being forced pulls every insertion ordered before it along *)
  let sufmin = Array.map deadline items in
  for i = n_items - 2 downto 0 do
    sufmin.(i) <- Rat.min sufmin.(i + 1) sufmin.(i)
  done;
  let empties =
    let a = Array.of_list empties in
    let idx = Array.init (Array.length a) Fun.id in
    Key.sort (Array.map (fun (e : Record.t) -> e.finish) a) idx;
    Array.map (fun i -> a.(i)) idx
  in
  let total =
    Array.fold_left
      (fun acc it ->
        acc + 1
        + (match it.cls.Record.take with Some _ -> 1 | None -> 0)
        + List.length it.peeks)
      0 items
    + Array.length empties
  in
  let acc = ref [] in
  let emitted = ref 0 in
  let next_ins = ref 0 and next_emp = ref 0 in
  let cont = create shape n_items in
  let stuck = ref false in
  (* the operation a [pending] action of head [h] emits *)
  let op pending h =
    match pending with
    | Peek -> List.hd items.(h).peeks
    | Take -> Option.get items.(h).cls.Record.take
    | _ -> empties.(!next_emp)
  in
  while !emitted < total && not !stuck do
    (* The access point's pending operation: the head's first peek,
       else its take; an empty observation when the container is
       empty.  Lazy insertion: keep servicing it and only grow the
       container when real time forces it — some operation of the
       next value (its put, or an op waiting on its presence) finishes
       before the pending operation starts.  Every operation emitted
       while the insertion stays deferred is then conflict-free against
       all of the deferred value's operations: its deadline (the
       minimum of those finishes) was >= the emitted op's start. *)
    let h = head cont ~inserted:!next_ins in
    let pending =
      if h >= 0 then
        match (items.(h).peeks, items.(h).cls.Record.take) with
        | _ :: _, _ -> Peek
        | [], Some _ -> Take
        | [], None -> Stuck
      else if !next_emp < Array.length empties then Empty
      else Stuck
    in
    let action =
      match pending with
      | _ when !next_ins >= n_items -> pending
      | Stuck -> Insert
      | _ ->
          if Rat.lt sufmin.(!next_ins) (op pending h).start then Insert
          else pending
    in
    match action with
    | Stuck -> stuck := true
    | Insert ->
        let i = !next_ins in
        incr next_ins;
        acc := items.(i).put.Record.id :: !acc;
        insert cont items i;
        incr emitted
    | Peek ->
        acc := (op pending h).Record.id :: !acc;
        items.(h).peeks <- List.tl items.(h).peeks;
        incr emitted
    | Take ->
        acc := (op pending h).Record.id :: !acc;
        remove_head cont;
        incr emitted
    | Empty ->
        acc := (op pending h).Record.id :: !acc;
        incr next_emp;
        incr emitted
  done;
  if !stuck then
    let h = head cont ~inserted:!next_ins in
    Record.Unknown
      (Printf.sprintf
         "greedy scheduler stuck after %d/%d operations (head %s, next \
          insertion %s)"
         !emitted total
         (if h >= 0 then string_of_int items.(h).cls.Record.value else "-")
         (if !next_ins < n_items then
            string_of_int items.(!next_ins).cls.Record.value
          else "-"))
  else Record.Order (List.rev !acc)
