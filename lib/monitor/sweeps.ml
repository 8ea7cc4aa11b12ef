(* Shared O(n log n) order-pattern sweeps for the container kernels.

   Both sweeps look for the same shape of necessary violation: an
   operation observes value [x] at the container's access point (head,
   top, or max) although some other value is {e forced} to be ahead of
   it there — inserted early enough that every linearization places it
   in the container before the observation, and removed too late (or
   never) for any linearization to have gotten it out of the way.

   - [queue_fifo] (HSV VOrd aspect): value [u] forced enqueued before
     [v] (finish of enq u < start of enq v) must be dequeued before any
     observation of [v] at the head.
   - [forced_above] (shared by stack and priority queue): candidates
     keyed by a rational — start of the push for LIFO ("pushed later"),
     the priority itself for the priority queue ("bigger") — absorbed in
     response-of-insert order and queried by a Fenwick tree holding the
     latest forced removal per key suffix. *)

module V = Spec.Adt_view

(* How long a candidate value provably stays in the container: forever
   if never taken, else until its take could earliest linearize. *)
type avail =
  | Never of Record.value_class
  | Until of Rat.t * Record.value_class

let better a b =
  match (a, b) with
  | Never _, _ -> a
  | _, Never _ -> b
  | Until (x, _), Until (y, _) -> if Rat.le y x then a else b

(* --- queue: FIFO order -------------------------------------------- *)

(* The observation of [c] that finishes first, among its take and then
   its peeks (the earliest such on ties). *)
let earliest_observation (c : Record.value_class) =
  let best = ref c.take in
  List.iter
    (fun (o : Record.t) ->
      match !best with
      | Some (b : Record.t) when not (Rat.lt o.finish b.finish) -> ()
      | _ -> best := Some o)
    c.peeks;
  !best

(* Values with head evidence (a take or peek returning them), iterated
   by start of their put; candidates absorbed once their put's finish
   drops below that start.  One running "first untaken" plus a running
   max of take starts decides both branches of the pattern. *)
let queue_fifo ~kind (puts : Record.puts) : Record.outcome option =
  let vals = puts.vals and put = puts.put in
  let observed = puts.by_start.sorted and candidates = puts.by_finish.sorted in
  let nc = Array.length candidates and no = Array.length observed in
  let i = ref 0 in
  let untaken = ref (-1) in
  (* max take start among absorbed taken candidates, and its value *)
  let latest = ref (-1) and latest_start = ref Rat.zero in
  let result = ref None in
  let k = ref 0 in
  while Option.is_none !result && !k < no do
    let w = observed.(!k) in
    incr k;
    match earliest_observation vals.(w) with
    | None -> ()
    | Some o -> (
        let c = vals.(w) in
        let s_put = put.(w).start in
        while !i < nc && Rat.lt put.(candidates.(!i)).finish s_put do
          let u = candidates.(!i) in
          (match vals.(u).take with
          | None -> if !untaken < 0 then untaken := u
          | Some t ->
              if !latest < 0 || Rat.lt !latest_start t.start then begin
                latest := u;
                latest_start := t.start
              end);
          incr i
        done;
        if !untaken >= 0 then
          let u = !untaken in
          result :=
            Some
              (Record.violation ~kind ~rule:"queue.fifo-order"
                 [ o; put.(w); put.(u) ]
                 (Printf.sprintf
                    "value %d observed at the head but value %d is forced \
                     ahead of it and never taken"
                    c.value vals.(u).value))
        else if !latest >= 0 && Rat.lt o.finish !latest_start then
          let u = !latest in
          result :=
            Some
              (Record.violation ~kind ~rule:"queue.fifo-order"
                 [ o; put.(w); put.(u); Option.get vals.(u).take ]
                 (Printf.sprintf
                    "value %d observed at the head before value %d, forced \
                     ahead of it, could be taken"
                    c.value vals.(u).value)))
  done;
  !result

(* --- stack / priority queue: forced-above ------------------------- *)

(* Max-Fenwick over dense key ranks; [query t r] is the best avail
   among ranks >= r (stored reversed so the suffix is a prefix). *)
module Fenwick = struct
  type t = { size : int; cells : avail option array }

  let make size = { size; cells = Array.make (size + 1) None }

  let update t rank v =
    let i = ref (t.size - rank + 1) in
    while !i <= t.size do
      (t.cells).(!i) <-
        (match (t.cells).(!i) with
        | None -> Some v
        | Some w -> Some (better v w));
      i := !i + (!i land - !i)
    done

  let query_suffix t rank =
    let i = ref (t.size - rank + 1) in
    let acc = ref None in
    while !i > 0 do
      (match (t.cells).(!i) with
      | Some v ->
          acc := Some (match !acc with None -> v | Some w -> better v w)
      | None -> ());
      i := !i - (!i land - !i)
    done;
    !acc
end

(* [forced_above ~kind ~rule ~key ~threshold puts]: for each take or
   peek observation [o] returning value [x], a violation exists iff
   some candidate [v] with [finish (put v) < start o] and
   [key v > threshold x o] is forced present at [o]'s linearization
   point (never taken, or its take starts after [o] finishes).  [key]
   is indexed like [puts.vals]. *)
let forced_above ~kind ~rule ~describe ~(key : Key.t) ~threshold
    (puts : Record.puts) : Record.outcome option =
  let vals = puts.vals and put = puts.put in
  (* every observation, with its value, by start (ties: value order,
     then the take before the peeks) *)
  let evidence =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (c : Record.value_class) ->
              List.map (fun o -> (i, o)) (Option.to_list c.take @ c.peeks))
            (Array.to_list vals)))
  in
  let ev_order = Array.init (Array.length evidence) Fun.id in
  Key.sort
    (Array.map (fun (_, (o : Record.t)) -> o.start) evidence)
    ev_order;
  (* dense ranks of the candidate keys, 1-based: equal keys share a
     rank, and [rank_arr.(r - 1)] is the key of rank [r] *)
  let rank = Array.make (Array.length vals) 0 in
  let rank_arr = Array.make (Array.length key.sorted) Rat.zero in
  let distinct = ref 0 in
  Array.iter
    (fun i ->
      let k = key.at.(i) in
      if !distinct = 0 || not (Rat.equal rank_arr.(!distinct - 1) k) then begin
        rank_arr.(!distinct) <- k;
        incr distinct
      end;
      rank.(i) <- !distinct)
    key.sorted;
  let m = !distinct in
  (* least rank with key strictly above the threshold *)
  let rank_above t =
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Rat.le rank_arr.(mid) t then lo := mid + 1 else hi := mid
    done;
    !lo + 1
  in
  let fen = Fenwick.make m in
  let candidates = puts.by_finish.sorted in
  let nc = Array.length candidates in
  let i = ref 0 in
  Array.find_map
    (fun e ->
      let w, (o : Record.t) = evidence.(e) in
      let c = vals.(w) in
      while !i < nc && Rat.lt put.(candidates.(!i)).finish o.start do
        let v = candidates.(!i) in
        let a =
          match vals.(v).take with
          | None -> Never vals.(v)
          | Some t -> Until (t.start, vals.(v))
        in
        Fenwick.update fen rank.(v) a;
        incr i
      done;
      let r = rank_above (threshold c o) in
      if r > m then None
      else
        match Fenwick.query_suffix fen r with
        | Some (Never v) when v != c ->
            Some
              (Record.violation ~kind ~rule
                 [ o; put.(w); Option.get v.put ]
                 (describe c v ^ " and never taken"))
        | Some (Until (s, v)) when v != c && Rat.lt o.finish s ->
            Some
              (Record.violation ~kind ~rule
                 [ o; put.(w); Option.get v.put; Option.get v.take ]
                 (describe c v ^ " until after the observation"))
        | _ -> None)
    ev_order

(* --- value insertion order ---------------------------------------- *)

type order_style =
  | Fifo_order
      (** queue: phases run in value order, so the phase intervals are a
          second interval order over the values *)
  | Push_order
      (** stack: only the put order and gone-before-put precedences
          constrain the insertion sequence; the preference tiers encode
          LIFO burying *)
  | Prio_order
      (** priority queue: insertion order is semantically free (the
          container sorts by value), so the best candidate is the real
          put order — a late-pushed maximum must not shadow earlier
          observations *)

(* A linear extension of every precedence real time forces on the
   insertion sequence:
   - put(u) entirely before put(v): u inserted first;
   - u's whole phase entirely before put(v): u was inserted, observed
     and removed before v existed;
   - (FIFO only) u's phase entirely before v's phase: the head reigns
     happen in insertion order.
   The phase of a value is its take plus its peeks — the operations
   that observe it at the container's access point.  Each of the four
   keys (put finish and start, phase earliest finish and latest start)
   is sorted once and shared by the relations that use it. *)
let value_order ~style (puts : Record.puts) : Record.value_class array option =
  let vals = puts.vals in
  let m = Array.length vals in
  let fe = puts.by_finish and se = puts.by_start in
  let observed = Array.make m false in
  let phase_finish = Array.make m Rat.zero
  and phase_start = Array.make m Rat.zero in
  Array.iteri
    (fun i (c : Record.value_class) ->
      let see (o : Record.t) =
        if observed.(i) then begin
          phase_finish.(i) <- Rat.min phase_finish.(i) o.finish;
          phase_start.(i) <- Rat.max phase_start.(i) o.start
        end
        else begin
          observed.(i) <- true;
          phase_finish.(i) <- o.finish;
          phase_start.(i) <- o.start
        end
      in
      Option.iter see c.take;
      List.iter see c.peeks)
    vals;
  let fp = Key.make ~defined:observed phase_finish in
  let put_order = { Extension.fkey = fe; skey = se } in
  let gone_before_put = { Extension.fkey = fp; skey = se } in
  (* LIFO residency edges: an observation of [w] forced to happen while
     [u] is provably in the container (put finished before the
     observation starts, take starts after it finishes) pins [u] below
     [w], hence inserted first.  This conjunction fits no single
     interval-order relation.  Pairs already ordered by [put_order] are
     skipped, so only values with overlapping puts are scanned — the
     candidate range is bounded by the history's concurrency width. *)
  let residency_edges () =
    let by_fe = fe.sorted in
    (* first position in [by_fe] with fe >= x *)
    let lower x =
      let lo = ref 0 and hi = ref m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Rat.lt fe.at.(by_fe.(mid)) x then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let edges = ref [] in
    for w = 0 to m - 1 do
      List.iter
        (fun (o : Record.t) ->
          let lo = lower se.at.(w) and hi = lower o.start in
          for k = lo to hi - 1 do
            let u = by_fe.(k) in
            if
              u <> w
              && Rat.lt fe.at.(u) o.start
              &&
              match vals.(u).take with
              | None -> true
              | Some (t : Record.t) -> Rat.lt o.finish t.start
            then edges := (u, w) :: !edges
          done)
        (Option.to_list vals.(w).take @ vals.(w).peeks)
    done;
    !edges
  in
  let relations, prefer =
    match style with
    | Fifo_order ->
        let phase_order =
          {
            Extension.fkey = fp;
            skey = Key.make ~defined:observed phase_start;
          }
        in
        ( [ put_order; phase_order; gone_before_put ],
          fun i ->
            match vals.(i).take with
            | Some (t : Record.t) ->
                (0, t.finish) (* takes run in insertion order *)
            | None when observed.(i) ->
                (1, phase_finish.(i)) (* peeked but never taken: near the end *)
            | None -> (2, fe.at.(i)) (* never observed: last *) )
    | Push_order ->
        (* the residency edges pin every observably-forced depth
           relation; among the rest, put-finish order is the best guess
           at the real push order *)
        ([ put_order; gone_before_put ], fun i -> (0, fe.at.(i)))
    | Prio_order -> ([ put_order; gone_before_put ], fun i -> (0, fe.at.(i)))
  in
  let edges =
    match style with Push_order -> residency_edges () | _ -> []
  in
  Option.map
    (Array.map (fun i -> vals.(i)))
    (Extension.solve ~m ~relations ~edges prefer)
