(* Linear extension of a union of forced-precedence relations.

   Each kernel reduces its "which value comes first" question to a set
   of relations of the shape

     u must precede w   iff   fkey u < skey w

   (an op of [u] finished before an op of [w] started, so real time
   forces [u]'s op — and with it the whole value — first).  Every
   relation of this shape is an interval order, and a linear extension
   of their union, when one exists, can be built greedily: a value is a
   {e source} when no alive value is forced before it under any
   relation, and moving any source to the front preserves feasibility
   of the rest (nothing needed to precede it, and removing it only
   removes constraints).  Which source to pick is thus a pure
   completeness heuristic, exposed as [prefer].

   The sweep is O(n log n): per relation, values unblock in ascending
   [skey] order as the minimum alive [fkey] rises, so one pointer per
   relation plus a path-compressed skip list over the [fkey]-sorted
   array visits every value O(1) amortized times. *)

type relation = {
  fkey : Key.t;  (** undefined: the value exerts no constraint here *)
  skey : Key.t;  (** undefined: the value is never blocked here *)
}

type rstate = {
  rel : relation;
  mutable sptr : int;  (** position in [rel.skey.sorted] *)
  nxt : int array;  (** skip list over [rel.fkey.sorted] positions *)
  bumped : bool array;  (** already reported unblocked to this relation *)
}

(* first alive position >= i in the fkey order, with path compression *)
let rec find_alive st (alive : bool array) i =
  let sort_f = st.rel.fkey.sorted in
  if i >= Array.length sort_f then i
  else if alive.(sort_f.(i)) then i
  else begin
    let j = find_alive st alive st.nxt.(i) in
    st.nxt.(i) <- j;
    j
  end

(* no alive value other than [w] has an fkey below [w]'s skey: the
   minimum alive fkey decides, except for its owner, which tests
   against the second minimum *)
let unblocked st alive w =
  let sort_f = st.rel.fkey.sorted in
  let len = Array.length sort_f in
  let i = find_alive st alive 0 in
  let i =
    if i < len && sort_f.(i) = w then find_alive st alive (i + 1) else i
  in
  i >= len
  || not (Rat.lt st.rel.fkey.at.(sort_f.(i)) st.rel.skey.at.(w))

(* a tiny binary min-heap over ints *)
module Heap = struct
  type t = { mutable a : int array; mutable n : int; cmp : int -> int -> int }

  let create cmp = { a = Array.make 16 0; n = 0; cmp }

  let push h v =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- v;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if h.cmp h.a.(!i) h.a.(p) < 0 then begin
        let t = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- t;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.n && h.cmp h.a.(l) h.a.(!s) < 0 then s := l;
        if r < h.n && h.cmp h.a.(r) h.a.(!s) < 0 then s := r;
        if !s = !i then continue := false
        else begin
          let t = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- t;
          i := !s
        end
      done;
      Some top
    end
end

(* [solve ~m ~relations ~edges ~prefer] returns a linear extension of
   the union, or [None] if the constraints are cyclic (real violation)
   or the greedy cannot certify one.  [edges] carries forced pairs
   [(u, w)] (u first) that fit no interval-order relation; they are
   resolved Kahn-style.  [prefer] ranks available sources: lower
   (rank, key) first. *)
let solve ~m ~(relations : relation list) ?(edges : (int * int) list = [])
    (prefer : int -> int * Rat.t) : int array option =
  if m = 0 then Some [||]
  else begin
    let alive = Array.make m true in
    let nrel = List.length relations + if edges = [] then 0 else 1 in
    let sat = Array.make m 0 in
    let pkey = Array.init m prefer in
    let cmp a b =
      let ra, ka = pkey.(a) and rb, kb = pkey.(b) in
      match Int.compare ra rb with 0 -> Rat.compare ka kb | c -> c
    in
    let sources = Heap.create cmp in
    let bump v =
      sat.(v) <- sat.(v) + 1;
      if sat.(v) = nrel then Heap.push sources v
    in
    let states =
      List.map
        (fun rel ->
          {
            rel;
            sptr = 0;
            nxt = Array.init (Array.length rel.fkey.sorted) (fun i -> i + 1);
            bumped = Array.make m false;
          })
        relations
    in
    let succ = Array.make m [] in
    let npred = Array.make m 0 in
    if edges <> [] then begin
      List.iter
        (fun (u, w) ->
          succ.(u) <- w :: succ.(u);
          npred.(w) <- npred.(w) + 1)
        edges;
      for v = 0 to m - 1 do
        if npred.(v) = 0 then bump v
      done
    end;
    (* values with no skey are never blocked by that relation *)
    List.iter
      (fun st ->
        for v = 0 to m - 1 do
          if not st.rel.skey.defined.(v) then begin
            st.bumped.(v) <- true;
            bump v
          end
        done)
      states;
    let advance st =
      (* the skey pointer: for a non-owner the blocking test compares
         the global min alive fkey against its skey, so unblocking is
         monotone in skey and a single pointer suffices *)
      let sort_s = st.rel.skey.sorted in
      let len = Array.length sort_s in
      let walking = ref true in
      while !walking && st.sptr < len do
        let w = sort_s.(st.sptr) in
        if (not alive.(w)) || st.bumped.(w) then st.sptr <- st.sptr + 1
        else if unblocked st alive w then begin
          st.bumped.(w) <- true;
          bump w;
          st.sptr <- st.sptr + 1
        end
        else walking := false
      done;
      (* the one exception: the owner of the min alive fkey tests
         against the {e second} minimum (its own fkey is excluded), so
         it can unblock ahead of its skey turn *)
      let i = find_alive st alive 0 in
      if i < Array.length st.rel.fkey.sorted then begin
        let o = st.rel.fkey.sorted.(i) in
        if (not st.bumped.(o)) && unblocked st alive o then begin
          st.bumped.(o) <- true;
          bump o
        end
      end
    in
    List.iter advance states;
    let order = Array.make m 0 in
    let emitted = ref 0 in
    let stuck = ref false in
    while !emitted < m && not !stuck do
      match Heap.pop sources with
      | None -> stuck := true
      | Some v ->
          alive.(v) <- false;
          order.(!emitted) <- v;
          incr emitted;
          List.iter
            (fun w ->
              npred.(w) <- npred.(w) - 1;
              if npred.(w) = 0 then bump w)
            succ.(v);
          List.iter advance states
    done;
    if !stuck then None else Some order
  end
