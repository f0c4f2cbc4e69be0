(** The repository's static gate over the compiler's typed ASTs ([.cmt]
    files produced by the dune build): proves the kernel's determinism,
    park/latch, allocation and recovery disciplines at build time
    (DESIGN.md §4k).

    Rules, each named stably in findings. Interprocedural, over the
    whole-program call graph:
    - [park-while-latched]: a non-I/O [Scheduler.park] reachable while a
      latch is held, with the call chain as witness;
    - [latch-order-cycle]: a cycle in the static latch
      acquisition-order graph (classes are record fields holding the
      latch, e.g. ["bufmgr.flatch"] — a superset of the runtime
      sanitizer's observed graph);
    - [hot-path-alloc]: heap allocation reachable from a
      [(* lint: hot-path *)]-tagged entry point;
    - [recovery-raise]: a raising stdlib partial ([Hashtbl.find],
      [List.hd], [Option.get], ...) reachable from WAL-replay or
      log-shipping code.

    Per unit ({!Lint}): [random], [wall-clock], [poly-compare],
    [hashtbl-iter-mutate] and [missing-mli]. And [unknown-pragma]: an
    allow pragma naming none of these rules.

    Findings honor [(* lint: allow <rule> [file] *)] pragmas, at the
    finding site or — for reachability chains — at the entry point. *)

type config = {
  cmt_dirs : string list;  (** directories scanned recursively for [.cmt] files *)
  src_root : string;  (** root for resolving compiler-recorded source paths *)
  recovery_units : string list;
      (** units whose toplevel functions are recovery entry points
          (default [Recovery], [Wal], [Record], [Quorum]) *)
}

val default_config : config

type result = {
  findings : Report.finding list;  (** pragma-filtered, deterministically sorted *)
  order_edges : (string * string) list;
      (** the static acquisition-order graph over latch classes; the
          runtime sanitizer's observed edge set must be a subset *)
  n_units : int;
  n_defs : int;
  rendered : string;  (** the full report, byte-identical across runs *)
}

val analyze : config -> result
