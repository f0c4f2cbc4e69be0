(** Hash tables keyed by [int]: transaction ids, row ids and page ids.

    The hash is the key with its sign bit cleared, and keys are compared
    with [Int.equal], so a lookup makes no C call and no polymorphic
    comparison. Iteration order differs from a generic [Hashtbl]'s;
    callers that iterate must not let that order reach the simulated
    clock (DESIGN.md section 4h). *)

include Hashtbl.S with type key = int
