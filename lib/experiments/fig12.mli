(** Experiment E1/E2 — the paper's Figure 12.

    (a) Wall-clock time of one detection run per workload (one
    insertion/query transaction, plus one per failure point in the
    post-failure stage), broken into pre-failure and post-failure shares.
    The paper's headline shape: the post-failure side dominates, because
    one post-failure execution is spawned per failure point.

    (b) Slowdown of full detection over the tracing-only frontend ("Pure
    Pin") and over the original, uninstrumented program.  The paper reports
    geometric means of 12.3x and 400.8x respectively; shapes, not absolute
    values, are expected to match. *)

type row = {
  name : string;
  failure_points : int;
  total : float;
  pre_share : float;
  post_share : float;
  pure_trace : float;
  original : float;
}

(** [run ~init ~test ()] measures every workload. *)
val run : ?init:int -> ?test:int -> unit -> row list

val print_a : row list -> unit
val print_b : row list -> unit
