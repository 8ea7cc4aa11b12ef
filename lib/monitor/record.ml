(* Interval records: the monitors' view of a completed history.

   The front end in [Monitor.Make] translates each completed operation
   into a record carrying only its canonical observation
   ([Spec.Adt_view.obs]) and real-time interval.  Everything the
   per-type monitors do — necessary-pattern scans, greedy
   linearization, the real-time sweep — works on arrays of these, so
   the kernels stay generic over data types.

   Conventions shared by all kernels:
   - records are indexed by [id], their position in the checked history;
   - [precedes a b] is the Herlihy-Wing real-time order: [a] responds
     strictly before [b] is invoked;
   - kernels may assume the history is {e unambiguous} — each [Put v]
     value appears at most once — the dispatcher checks this before
     dispatching and falls back to Wing-Gong otherwise. *)

type t = {
  id : int;
  proc : int;
  obs : Spec.Adt_view.obs;
  start : Rat.t;  (** invocation time *)
  finish : Rat.t;  (** response time *)
}

let precedes a b = Rat.lt a.finish b.start

let culprit (r : t) : Violation.culprit =
  { index = r.id; proc = r.proc; obs = r.obs; start = r.start; finish = r.finish }

(* What a kernel decides.  [Order] is a candidate linearization (record
   ids, first to last) that the dispatcher re-verifies by semantic
   replay and a real-time sweep before trusting — an accept is always
   certificate-backed.  [Violation] carries a witness justified by a
   necessary condition, so it is sound on its own.  [Unknown] sends the
   history to the Wing-Gong fallback (ambiguity, an observation outside
   the kernel's vocabulary, or greedy incompleteness). *)
type outcome =
  | Order of int list
  | Violation of Violation.t
  | Unknown of string

let sorted_by ~key records =
  let idx = Array.init (Array.length records) Fun.id in
  Key.sort (Array.map key records) idx;
  Array.map (fun i -> records.(i)) idx

let sorted_by_start records = sorted_by ~key:(fun r -> r.start) records

(* Real-time sweep (paper §2.3): an order [pi] respects real time iff
   no operation finishes before an earlier-placed one starts.  Keep the
   running max of invocation times over the prefix; a later operation
   whose response time is below that max was forced before some already
   placed operation.  O(n) over the proposed order; returns the
   offending pair (earlier-placed, misplaced) for diagnostics. *)
let real_time_conflict (records : t array) (order : int list) :
    (t * t) option =
  let worst = ref None in
  (* latest-starting operation placed so far *)
  let check acc id =
    match acc with
    | Some _ -> acc
    | None -> (
        let r = records.(id) in
        let conflict =
          match !worst with
          | Some w when Rat.lt r.finish w.start -> Some (w, r)
          | _ -> None
        in
        (match !worst with
        | Some w when Rat.le r.start w.start -> ()
        | _ -> worst := Some r);
        conflict)
  in
  List.fold_left check None order

(* --- Per-value classes -------------------------------------------------

   The container kernels (queue, stack, priority queue) all start by
   grouping records by value: the unique [Put v], the unique
   [Take (Some v)], and the [Peek (Some v)] observations, plus the
   shared pool of empty observations ([Take None] / [Peek None]).
   Building the classes also performs the cheap per-value necessary
   patterns common to every container:

   - take/peek of a value never put      ("fresh")
   - two takes of the same value         ("repeat")
   - take/peek entirely before the put   ("before-put")
   - peek entirely after the take        ("after-take")

   Each is a necessary condition for {e any} container in which [Put]
   inserts a fresh value, [Take] removes it, and [Peek] observes it
   without removing — so a hit is a sound violation for queue, stack,
   and priority queue alike. *)

type value_class = {
  value : int;
  mutable put : t option;
  mutable take : t option;
  mutable peeks : t list;
}

type classes = {
  values : value_class list;  (** in order of each value's first record *)
  empties : t list;  (** [Take None] and [Peek None], in record order *)
}

module Itbl = Hashtbl.Make (Int)

let violation ~kind ~rule culprits message =
  Violation (Violation.make ~kind ~rule ~culprits:(List.map culprit culprits) message)

(* Group records and run the per-value patterns.  [Ok classes] when no
   cheap pattern fires; kernels then continue with shape-specific
   scans.  Records with observations outside the container vocabulary
   yield [Unknown] (the dispatcher falls back). *)
let classify ~kind (records : t array) : (classes, outcome) result =
  (* Ambiguity gate, before anything else.  Every per-value pattern
     below assumes each value is inserted at most once; under a
     duplicate insertion a "repeat take" or "fresh value" may simply be
     the other insertion's copy, so no per-value verdict can be
     trusted.  The scan must be a separate whole-array pass: in record
     order a confounded pattern (two takes of [v]) can precede the
     second [Put v] that explains it, and flagging eagerly would turn
     an ambiguous history into a definitive — and wrong — violation.
     It also creates the class of every inserted value, in the one
     table the grouping pass below fills. *)
  let by_value = Itbl.create (Array.length records) in
  let ambiguous = ref None in
  Array.iter
    (fun r ->
      match (r.obs, !ambiguous) with
      | Spec.Adt_view.Put v, None ->
          if Itbl.mem by_value v then ambiguous := Some v
          else
            Itbl.add by_value v
              { value = v; put = None; take = None; peeks = [] }
      | _ -> ())
    records;
  match !ambiguous with
  | Some v ->
      Error
        (Unknown
           (Printf.sprintf "value %d inserted twice; history is ambiguous" v))
  | None ->
  let values = ref [] and empties = ref [] in
  (* a class joins [values] at its value's first record: the grouping
     pass fills a field on every visit, so an empty class is unvisited *)
  let class_for v =
    let c =
      match Itbl.find_opt by_value v with
      | Some c -> c
      | None ->
          let c = { value = v; put = None; take = None; peeks = [] } in
          Itbl.add by_value v c;
          c
    in
    (match c with
    | { put = None; take = None; peeks = []; _ } -> values := c :: !values
    | _ -> ());
    c
  in
  let outcome = ref None in
  let flag o = if !outcome = None then outcome := Some o in
  Array.iter
    (fun r ->
      match !outcome with
      | Some _ -> ()
      | None -> (
          match r.obs with
          | Spec.Adt_view.Put v ->
              let c = class_for v in
              c.put <- Some r
          | Take (Some v) -> (
              let c = class_for v in
              match c.take with
              | Some first ->
                  flag
                    (violation ~kind ~rule:"container.repeat" [ r; first ]
                       (Printf.sprintf "value %d taken twice" v))
              | None -> c.take <- Some r)
          | Peek (Some v) ->
              let c = class_for v in
              c.peeks <- r :: c.peeks
          | Take None | Peek None -> empties := r :: !empties
          | Has _ | Drop _ | Opaque ->
              flag
                (Unknown
                   (Printf.sprintf "observation %s outside container vocabulary"
                      (Spec.Adt_view.obs_to_string r.obs)))))
    records;
  (* fresh / before-put / after-take, the most recently seen value
     first (the witness reported is the first hit in that order) *)
  (match !outcome with
  | Some _ -> ()
  | None ->
      List.iter
        (fun c ->
          if !outcome = None then
            match c.put with
            | None ->
                let evidence =
                  match (c.take, c.peeks) with
                  | Some t, _ -> Some t
                  | None, p :: _ -> Some p
                  | None, [] -> None
                in
                Option.iter
                  (fun e ->
                    flag
                      (violation ~kind ~rule:"container.fresh" [ e ]
                         (Printf.sprintf
                            "value %d observed but never inserted" c.value)))
                  evidence
            | Some put ->
                let before_put e =
                  if Rat.lt e.finish put.start then
                    flag
                      (violation ~kind ~rule:"container.before-put" [ e; put ]
                         (Printf.sprintf
                            "value %d observed entirely before its insertion"
                            c.value))
                in
                Option.iter before_put c.take;
                List.iter before_put c.peeks;
                (match c.take with
                | Some take ->
                    List.iter
                      (fun p ->
                        if Rat.lt take.finish p.start then
                          flag
                            (violation ~kind ~rule:"container.after-take"
                               [ p; take ]
                               (Printf.sprintf
                                  "value %d observed entirely after its removal"
                                  c.value)))
                      c.peeks
                | None -> ()))
        !values);
  match !outcome with
  | Some o -> Error o
  | None -> Ok { values = List.rev !values; empties = List.rev !empties }

(* The values that have a put, with their put-start and put-finish
   orders sorted once per check: the order sweeps, the empty-coverage
   scan and the insertion-order relations all share them. *)
type puts = {
  vals : value_class array;  (** the classes with a put, in [values] order *)
  put : t array;  (** [put.(i)] is the put of [vals.(i)] *)
  by_start : Key.t;  (** put invocation times *)
  by_finish : Key.t;  (** put response times *)
}

let puts (classes : classes) =
  let vals =
    Array.of_list
      (List.filter
         (fun (c : value_class) -> Option.is_some c.put)
         classes.values)
  in
  let put = Array.map (fun (c : value_class) -> Option.get c.put) vals in
  {
    vals;
    put;
    by_start = Key.make (Array.map (fun p -> p.start) put);
    by_finish = Key.make (Array.map (fun p -> p.finish) put);
  }

(* --- Empty-observation coverage ---------------------------------------

   A [Take None] / [Peek None] at interval [s, f] is impossible iff
   every point of [s, f] is covered by some value that is {e forced}
   present there: inserted with response before the point and removed
   (if ever) with invocation after it.  Each such value contributes the
   open interval (finish of put, start of take) — or (finish of put,
   +inf) when never taken.  The observation is a violation iff the
   open-interval union covers the whole closed [s, f] (HSV-style VWit
   aspect, generalized to any container whose emptiness is "no value
   present").

   One sweep over the covers by lower end merges them into the
   union's connected components — disjoint open intervals, ascending;
   two covers join when the next opens strictly below the running
   close, since the shared endpoint itself is uncovered.  At most the
   last component is unbounded.  Each empty observation is then one
   binary search: [s, f] is covered iff the last component opening
   below [s] closes above [f].  O((n + e) log n) overall. *)
let empty_uncoverable ~kind (classes : classes) (puts : puts) :
    outcome option =
  match classes.empties with
  | [] -> None
  | empties ->
      let order = puts.by_finish.sorted in
      let n = Array.length order in
      let lo k = puts.by_finish.at.(order.(k)) in
      let hi k =
        Option.map (fun t -> t.start) puts.vals.(order.(k)).take
      in
      let comp_lo = Array.make n Rat.zero and comp_hi = Array.make n Rat.zero in
      let comps = ref 0 and unbounded = ref false in
      for k = 0 to n - 1 do
        if not !unbounded then begin
          let l = lo k in
          let joins = !comps > 0 && Rat.lt l comp_hi.(!comps - 1) in
          if not joins then begin
            comp_lo.(!comps) <- l;
            incr comps
          end;
          let last = !comps - 1 in
          match puts.vals.(order.(k)).take with
          | None -> unbounded := true
          | Some t ->
              comp_hi.(last) <-
                (if joins then Rat.max comp_hi.(last) t.start else t.start)
        end
      done;
      let covered (e : t) =
        (* the last component opening strictly below [e.start] *)
        let a = ref 0 and b = ref !comps in
        while !a < !b do
          let mid = (!a + !b) / 2 in
          if Rat.lt comp_lo.(mid) e.start then a := mid + 1 else b := mid
        done;
        let j = !a - 1 in
        j >= 0
        && ((!unbounded && j = !comps - 1) || Rat.lt e.finish comp_hi.(j))
      in
      (* The witness scan for the one covered observation reported:
         [p] is the leftmost point of [s, f] not yet shown covered.
         Absorb covers opening strictly below [p]; the furthest close
         among them extends coverage to an open bound.  A cover with no
         take covers through +inf.  The covers that extended it are the
         witnesses. *)
      let witnesses (e : t) =
        let p = ref e.start in
        let i = ref 0 in
        let covered = ref false and stuck = ref false in
        let wits = ref [] in
        while not (!covered || !stuck) do
          let best = ref None in
          (* [Some None] = unbounded, [Some (Some h)] = closes at h *)
          while !i < n && Rat.lt (lo !i) !p do
            let c = puts.vals.(order.(!i)) in
            (match (!best, hi !i) with
            | Some None, _ -> ()
            | _, None ->
                best := Some None;
                wits := c :: !wits
            | None, Some h ->
                best := Some (Some h);
                wits := c :: !wits
            | Some (Some b), Some h ->
                if Rat.lt b h then begin
                  best := Some (Some h);
                  wits := c :: !wits
                end);
            incr i
          done;
          match !best with
          | Some None -> covered := true
          | Some (Some h) when Rat.lt !p h ->
              if Rat.lt e.finish h then covered := true else p := h
          | _ -> stuck := true
        done;
        !wits
      in
      let witness e wits =
        (* keep the report small: the empty observation plus the first
           few covering put/take pairs *)
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | c :: rest -> c :: take (k - 1) rest
        in
        let culprits =
          e
          :: List.concat_map
               (fun (c : value_class) ->
                 match (c.put, c.take) with
                 | Some p, Some t -> [ p; t ]
                 | Some p, None -> [ p ]
                 | None, _ -> [])
               (take 4 (List.rev wits))
        in
        violation ~kind ~rule:"container.nonempty" culprits
          "empty observation while some value is provably present"
      in
      Option.map
        (fun e -> witness e (witnesses e))
        (List.find_opt covered empties)
