(** A minimal JSON encoder and parser (no external dependencies).

    Only what the report and telemetry output needs: objects, arrays,
    strings with correct escaping, integers, floats and booleans.  The
    parser exists so that JSONL telemetry written by {!Xfd_obs} can be
    round-tripped and checked without an external dependency. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null

val to_string : t -> string

(** Pretty-printed with two-space indentation. *)
val to_string_pretty : t -> string

(** Write {!to_string_pretty} and a newline to a fresh file. *)
val to_file : string -> t -> unit

(** Escape a string body per RFC 8259 (without the surrounding quotes). *)
val escape : string -> string

(** Parse one JSON value.  Numbers without a fraction or exponent that fit
    in an OCaml [int] parse as [Int], everything else as [Float]; [\uXXXX]
    escapes below 0x80 decode to the corresponding byte, higher code points
    are preserved as their literal escape text.  Trailing whitespace is
    allowed, trailing garbage is an error. *)
val of_string : string -> (t, string) result

(** [member key json] looks up [key] in an [Obj] ([None] otherwise). *)
val member : string -> t -> t option
