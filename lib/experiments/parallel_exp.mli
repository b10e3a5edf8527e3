(** Future-work experiment — parallelized detection.

    The paper: "the post-failure executions are independent as they operate
    on a copy of the original PM image, and therefore, can be parallelized.
    We leave the parallelized detection as a future work."  This
    reproduction implements it with OCaml 5 domains: [Config.post_jobs]
    caps the helpers a detect enlists from the process-wide
    {!Xfd_util.Domain_pool}, and the table shows how many each run
    actually had.  It measures it honestly: verdicts are bit-identical across job counts;
    wall-clock speedup at simulator scale is allocation-bound and
    workload-dependent (each post-failure execution here is a
    millisecond-scale in-process replay, not the paper's forked
    Pin-instrumented process, where the win would be mechanical). *)

type row = {
  jobs : int;
  helpers : int list;  (** pool helpers that ran a post run, per timed run *)
  wall : float;  (** median of the three timed runs *)
  verdicts_match_sequential : bool;  (** in every timed run *)
}

val run : ?size:int -> unit -> row list
val print : row list -> unit
