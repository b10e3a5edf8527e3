(** Differential workload fuzzing: the driver loop.

    Each iteration generates one program (deterministically from the run
    seed and the iteration index, so a budget extension replays a prefix),
    runs it through [Engine.detect], and checks:

    - {b Differential}: the engine's deduplicated key set and fired
      failure-point count must equal the reference {!Oracle}'s.
    - {b Metamorphic M1}: inserting a redundant CLWB (of a slot stored
      earlier) immediately before an existing fence never flags a read
      site that the original did not flag — extra flushes may turn races
      into semantic findings or remove them, but cannot invent correctness
      bugs at new sites.
    - {b Metamorphic M2}: swapping two adjacent independent ops (stores,
      flushes, reads, TX adds on disjoint cache lines, no fence between)
      preserves the exact key set.
    - {b Metamorphic M4}: a [Correct]-profile program must be
      {!Xfd_lint.Lint}-clean — the static analyzer never indicts a
      well-formed persistence protocol.
    - {b Metamorphic M5}: domain-model monotonicity.  A [Correct]-profile
      program must have no error-severity findings under {e any}
      {!Xfd_trace.Domain_model.t} (eADR legitimately downgrades its
      flushes to redundant-flush warnings, so M5 gates on errors only);
      and for every profile, linting under [Eadr] must never {e add} an
      error-severity key that the [Adr] lint lacks — eADR only removes
      persistence obligations.
    - {b Profile}: a [Correct]-profile program must produce zero findings.

    (M3 is retired with the parallel post-run path it compared; the
    other checks keep their numbers.)

    Any violation is shrunk with {!Shrink.minimize} (the shrink predicate
    re-checks the violated property) and saved as an [.xfdprog] repro in
    the corpus directory.  Buggy programs whose verdicts agree are also
    harvested: the first program exhibiting each new key set is shrunk and
    saved, building a regression corpus that [run] replays first.

    Programs with a dynamically-confirmed race that no lint finding
    anticipates (per {!Xfd_lint.Lint.triage_of}) are counted in
    [lint_misses] and the first few distinct ones are shrunk into the
    corpus too.  Such misses are by design — they are the evidence for
    never pruning failure points by lint — so they do not fail the run. *)

type cfg = {
  seed : int;
  budget : int;  (** programs to generate *)
  profile : Gen.profile;
  corpus_dir : string option;  (** replayed first; repros are saved here *)
  max_repros : int;  (** cap on harvested bug repros (not violations) *)
  shrink_budget : int;  (** max predicate evaluations per shrink *)
}

val default_cfg : cfg

type summary = {
  programs : int;
  divergences : int;  (** engine vs reference-oracle mismatches *)
  meta_failures : int;  (** metamorphic or correct-profile violations *)
  buggy_programs : int;  (** programs with at least one finding *)
  unique_key_sets : int;  (** distinct verdict signatures seen *)
  repros : string list;  (** paths of saved repro files, in save order *)
  shrink_evals : int;
  corpus_checked : int;
  corpus_failures : int;
  lint_misses : int;
      (** programs whose detected races no lint finding anticipated —
          informational, never a failure *)
}

(** True when the run found no divergence, no metamorphic violation and no
    corpus regression. *)
val clean : summary -> bool

(** Run the loop.  Progress and failure detail go to [out]
    (default: a null formatter); all output is deterministic for a given
    [cfg]. *)
val run : ?out:Format.formatter -> cfg -> summary

val pp_summary : Format.formatter -> summary -> unit
