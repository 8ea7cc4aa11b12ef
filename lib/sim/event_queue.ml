(* Flat binary min-heap over four parallel arrays (times / klasses /
   seqs / payloads) instead of an ['a entry option array]: a push
   writes four slots and allocates nothing — no entry record, no
   [Some] box — which matters because the simulator's main loop pushes
   and pops one entry per dispatched event.

   Payloads are stored as [Obj.t] so the payload array is an ordinary
   pointer array whatever ['a] is (never a flat float array) and freed
   slots can be cleared with an immediate: slots at index >= size are
   zeroed so a completed event's payload cannot stay reachable through
   the heap for the rest of a long run.  The casts are confined to
   [set]/[payload] below; the ['a t] phantom keeps the API typed. *)

type 'a t = {
  mutable times : Rat.t array;
  mutable klasses : int array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    klasses = [||];
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let[@inline] payload (q : 'a t) i : 'a = Obj.obj q.payloads.(i)

let[@inline] clear_slot q i =
  q.times.(i) <- Rat.zero;
  q.payloads.(i) <- Obj.repr 0

(* Strict (time, klass, seq) ordering between slots [i] and [j]. *)
let[@inline] slot_lt q i j =
  let c = Rat.compare q.times.(i) q.times.(j) in
  if c <> 0 then c < 0
  else if q.klasses.(i) <> q.klasses.(j) then q.klasses.(i) < q.klasses.(j)
  else q.seqs.(i) < q.seqs.(j)

let[@inline] copy_slot q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.klasses.(dst) <- q.klasses.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.payloads.(dst) <- q.payloads.(src)

let grow q =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let fresh = Stdlib.max 16 (2 * capacity) in
    let times = Array.make fresh Rat.zero in
    let klasses = Array.make fresh 0 in
    let seqs = Array.make fresh 0 in
    let payloads = Array.make fresh (Obj.repr 0) in
    Array.blit q.times 0 times 0 q.size;
    Array.blit q.klasses 0 klasses 0 q.size;
    Array.blit q.seqs 0 seqs 0 q.size;
    Array.blit q.payloads 0 payloads 0 q.size;
    q.times <- times;
    q.klasses <- klasses;
    q.seqs <- seqs;
    q.payloads <- payloads
  end

(* The freshly pushed entry sits at [q.size]; walk the hole toward the
   root, moving parents down, and drop the entry in once. *)
let sift_up q =
  let time = q.times.(q.size)
  and klass = q.klasses.(q.size)
  and seq = q.seqs.(q.size)
  and pl = q.payloads.(q.size) in
  let i = ref q.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let c = Rat.compare time q.times.(parent) in
    let lt =
      if c <> 0 then c < 0
      else if klass <> q.klasses.(parent) then klass < q.klasses.(parent)
      else seq < q.seqs.(parent)
    in
    if lt then begin
      copy_slot q ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  q.times.(!i) <- time;
  q.klasses.(!i) <- klass;
  q.seqs.(!i) <- seq;
  q.payloads.(!i) <- pl

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && slot_lt q left !smallest then smallest := left;
  if right < q.size && slot_lt q right !smallest then smallest := right;
  if !smallest <> i then begin
    let time = q.times.(i)
    and klass = q.klasses.(i)
    and seq = q.seqs.(i)
    and pl = q.payloads.(i) in
    copy_slot q ~src:!smallest ~dst:i;
    q.times.(!smallest) <- time;
    q.klasses.(!smallest) <- klass;
    q.seqs.(!smallest) <- seq;
    q.payloads.(!smallest) <- pl;
    sift_down q !smallest
  end

let push_class (q : 'a t) ~priority ~time (x : 'a) =
  grow q;
  let i = q.size in
  q.times.(i) <- time;
  q.klasses.(i) <- priority;
  q.seqs.(i) <- q.next_seq;
  q.payloads.(i) <- Obj.repr x;
  q.next_seq <- q.next_seq + 1;
  sift_up q;
  q.size <- q.size + 1

let push q ?(priority = 1) ~time x = push_class q ~priority ~time x

let is_empty q = q.size = 0
let length q = q.size

let min_time q =
  if q.size = 0 then invalid_arg "Event_queue.min_time: empty queue"
  else q.times.(0)

let min_priority q =
  if q.size = 0 then invalid_arg "Event_queue.min_priority: empty queue"
  else q.klasses.(0)

let pop_min (q : 'a t) : 'a =
  if q.size = 0 then invalid_arg "Event_queue.pop_min: empty queue"
  else begin
    let top : 'a = payload q 0 in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      copy_slot q ~src:q.size ~dst:0;
      clear_slot q q.size;
      sift_down q 0
    end
    else clear_slot q 0;
    top
  end

let pop q =
  if q.size = 0 then None
  else
    let time = q.times.(0) in
    Some (time, pop_min q)

let peek_time q = if q.size = 0 then None else Some q.times.(0)
