(* In-memory spans recorded around calls into the library's layers.

   A span is {name, start, stop, parent} plus the GC counters that moved
   while it was open.  Spans are only recorded by the traced run, which
   is single-domain: [Gc.minor_words] counts the calling domain only.
   Nothing is written until [write] is called at exit, so recording
   costs two clock reads and two GC samples per span. *)

type t = {
  id : int;
  name : string;
  label : string;  (** free-form detail, e.g. a shard index or cell key *)
  parent : int;  (** [-1] for a root span *)
  start_s : float;
  stop_s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
}

let now () = float_of_int (Perf.Measure.monotonic_ns ()) *. 1e-9
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let record ?(label = "") name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let s0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let start_s = now () in
  Fun.protect f ~finally:(fun () ->
      let stop_s = now () in
      let mw1 = Gc.minor_words () in
      let s1 = Gc.quick_stat () in
      open_ids := List.tl !open_ids;
      recorded :=
        {
          id;
          name;
          label;
          parent;
          start_s;
          stop_s;
          minor_words = mw1 -. mw0;
          promoted_words = s1.promoted_words -. s0.promoted_words;
          minor_collections = s1.minor_collections - s0.minor_collections;
        }
        :: !recorded)

let duration s = s.stop_s -. s.start_s
let named name = List.filter (fun s -> s.name = name) (List.rev !recorded)
let sum f name = List.fold_left (fun acc s -> acc +. f s) 0.0 (named name)
let total_s name = sum duration name

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* One JSON object per line, in the order the spans were opened. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"label\":%s,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,\"minor_words\":%.0f,\"promoted_words\":%.0f,\"minor_collections\":%d}\n"
        s.id (json_string s.name) (json_string s.label) s.parent s.start_s
        s.stop_s s.minor_words s.promoted_words s.minor_collections)
    (List.sort (fun a b -> compare a.id b.id) !recorded);
  close_out oc
