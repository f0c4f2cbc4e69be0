(** Per-unit determinism and idiom rules over the typed tree: [random],
    [wall-clock], type-directed [poly-compare], [hashtbl-iter-mutate] and
    [missing-mli] (see lint.ml for each rule's exact trigger). *)

val findings : Loader.unit_info -> Report.finding list
(** Unfiltered findings of one unit, in traversal order; pragmas are
    applied by {!Check.analyze}. *)
