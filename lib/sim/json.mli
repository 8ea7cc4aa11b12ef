(** JSON string escaping shared by every report emitter. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (without the enclosing
    quotes): quotes, backslashes and all control characters escaped,
    UTF-8 passed through. *)
