(** Byte-accurate page storage behind a simulated device.

    The Data Page File and Data Block File of the paper's storage layout
    (§5.1, Figure 2) are both [Pagestore.t] instances over their device.
    Contents are held in memory (the substitution for a real filesystem)
    but every access is serialised through {!Device.t}, so eviction,
    cold reads and frozen-block I/O consume bandwidth and time.

    The store keeps two image tables: the {b latest} view (updated at
    submission, read-your-writes — the OS page cache) and the
    {b durable} view (updated only by device completions — the media).
    {!crash} discards the latest view and reverts to the media. Page
    writes are atomic at page granularity: a torn write under fault
    injection leaves the previous durable image intact (full-page-write
    semantics), it never yields a half-page. *)

type t

val create : Device.t -> t

val write : t -> page_id:int -> Bytes.t -> unit
(** Durably store a page image. The content is captured at once and
    the latest view updated. Suspends the calling fiber until the device
    completes the write; outside a fiber it returns at submission and
    the write completes when the engine runs it. Under fault injection a
    lost ack suspends the fiber forever — exactly the stall a real
    kernel sees. *)

val write_batch : t -> (int * Bytes.t) list -> on_complete:(unit -> unit) -> unit
(** Vectored write: every page image is captured immediately and the
    whole list goes to the device as one doorbell (one amortised IOPS
    charge). [on_complete] fires once, after the last page of the batch
    completes; called synchronously on an empty list. *)

val read : t -> page_id:int -> Bytes.t
(** Fetch a page image (latest view), suspending for the device round
    trip. @raise Not_found if the page was never written. *)

val mem : t -> page_id:int -> bool

val delete : t -> page_id:int -> unit
(** Drop the page from the latest view. Its durable image stays until
    the next {!sync}, so a crash before then brings the page back for
    the last snapshot that names it. *)

val max_page_id : t -> int
(** The largest page id holding an image (latest view); 0 when empty. *)

val crash : t -> int
(** Power loss: drop the latest view, revert every page to its durable
    image; pages never durably written disappear. Returns how many pages
    existed only in the volatile view. The caller drops scheduled device
    completions ({!Phoebe_sim.Engine.clear}). *)

val sync : t -> on_complete:(unit -> unit) -> unit
(** Drive the durable table to match the latest view: resubmit every
    divergent page, observe each outcome (a torn checkpoint write is
    caught by the read-verify pass a real checkpointer runs) and retry
    until nothing volatile remains, then drop the durable images of
    deleted pages. [on_complete] fires when the store is fully durable —
    the fsync barrier a snapshot needs before it can be published as a
    recovery point. *)

val durable_page_count : t -> int

val fault_stats : t -> int * int
(** [(torn_writes, lost_acks)] this store absorbed from its device. *)

val page_count : t -> int
val stored_bytes : t -> int
val device : t -> Device.t
