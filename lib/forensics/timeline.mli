(** Trace timeline rendering: the excerpts a provenance chain embeds and
    the printer behind [xfd trace dump --range] and [xfd trace explain].

    Lines look like

    {v
       [    42] WRITE 0x10008 8 @ lib/workloads/array_update.ml:61
      >[    43] CLWB 0x10000 @ lib/workloads/array_update.ml:62
    v}

    where [>] marks an implicated event. *)

(** Events of context rendered on each side of an implicated index. *)
val default_radius : int

(** Render one event; [mark] prefixes the line with [>]. *)
val render_line : ?mark:bool -> Xfd_trace.Event.t -> string

(** [range t ~from ~upto ~marks] renders events [from .. upto-1] (clamped
    to the trace), marking any index in [marks]. *)
val range : Xfd_trace.Trace.t -> from:int -> upto:int -> marks:int list -> string list

(** One rendered excerpt: the half-open index window and its lines. *)
type excerpt = { from : int; upto : int; lines : string list }

(** [excerpts t ~indices ~radius] renders a window of [radius] events
    around each index, merging overlapping or adjacent windows into one
    excerpt.  Out-of-range indices are dropped; the result is ordered. *)
val excerpts : Xfd_trace.Trace.t -> indices:int list -> radius:int -> excerpt list
