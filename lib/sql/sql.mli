(** SQL execution over the PhoebeDB kernel — the paper's future-work
    item 1, built on the public {!Phoebe_core.Table} API.

    Planning is OLTP-shaped: a conjunctive WHERE clause is matched
    against the table's secondary indexes; the index whose key prefix is
    fully bound by equality predicates (optionally followed by one range
    predicate) serves the query as a point/prefix/range probe, and the
    remaining predicates are applied as residual filters. With no usable
    index, the statement falls back to a visibility-filtered full scan
    (which never warms pages).

    Sessions give PostgreSQL-style transaction semantics: autocommit per
    statement, or explicit [BEGIN;]…[COMMIT;]/[ROLLBACK;]. MVCC aborts
    inside an explicit transaction surface as {!Error}; autocommitted
    statements retry internally like every kernel transaction. *)

type session

val session : Phoebe_core.Db.t -> session

type result =
  | Rows of string list * Phoebe_storage.Value.t array list
      (** column headers and result rows, in result order *)
  | Affected of int  (** rows touched by INSERT / UPDATE / DELETE *)
  | Done of string  (** DDL / transaction-control acknowledgement *)

exception Error of string
(** Parse, binding, or execution failure. The session transaction (if
    any) is rolled back before this is raised. *)

val exec : session -> string -> result
(** Execute exactly one statement. *)

val exec_script : session -> string -> result list
(** Execute a semicolon-separated batch, stopping at the first error. *)

val in_transaction : session -> bool

(** {1 Plan introspection (for tests and EXPLAIN-style tooling)} *)

type access_path =
  | Full_scan
  | Index_probe of { index : string; prefix_len : int; ranged : bool }

val explain : session -> string -> string
(** Human-readable access path for a SELECT. *)
