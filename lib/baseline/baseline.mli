(** Comparison kernels for Exp 8 and Exp 9, built as configurations of
    the same relational substrate so the throughput gaps emerge from the
    architectural mechanisms the paper blames rather than hard-coded
    constants.

    {b Pg_like} (PostgreSQL-17-style): snapshot acquisition scans the
    active-transaction array behind a proc-array latch; locks live in a
    global lock table behind one latch; the WAL has a single serialized
    writer with flush-on-commit; execution uses the thread model; there
    is no pointer swizzling (every page access pays a global hash-table
    probe) and per-operation instruction counts carry the interpreter
    overhead of a general-purpose executor.

    {b Odb_like} (the paper's commercial "O-DB"): an optimized
    buffer-pool-centric engine that remains I/O-bound — larger
    per-page-access costs and a storage configuration whose bandwidth
    ceiling caps CPU utilisation near 77%. *)

val pg_like : ?workers:int -> ?buffer_bytes:int -> unit -> Phoebe_core.Config.t
(** Defaults: 100 worker threads (thread model), 256 MB buffer. *)

val odb_like : ?workers:int -> ?buffer_bytes:int -> unit -> Phoebe_core.Config.t
