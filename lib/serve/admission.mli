(** The daemon's admission state machine, socket-free.

    Composes the {!Gridbw_core.Online} controller (paper constraint set
    (1), GREEDY-style: decide at submission time) with the durable
    journal: every [admit] journals an [Arrival] plus its decision, every
    effective [cancel] a [Preempt], through the same event codec the
    batch runs use — so [gridbw recover] and [gridbw replay-trace] read a
    daemon's store exactly like a batch run's.

    Durability contract: {!handle} only {e applies and journals}; records
    may still sit in the WAL's unsynced tail.  The caller must
    {!flush} (fsync) before releasing any response to the wire —
    {!Daemon} does this once per event-loop round (group commit).

    Virtual time: the controller clock is the max decision time seen so
    far; an admit for a request whose [ts] is already past decides at the
    clock ([sigma >= ts] still holds, the policy recomputes the rate
    against the residual window).  Request [ts] must be [>= 0] so the
    journal stays monotone past its capacity prefix. *)

type t

val create :
  ?obs:Gridbw_obs.Obs.ctx ->
  ?store:Gridbw_store.Store.t ->
  policy:Gridbw_core.Policy.t ->
  Gridbw_topology.Fabric.t ->
  t
(** Fresh state.  [obs] supplies the metrics registry the [stats] verb
    dumps (a fresh enabled one is created when omitted); with [store],
    decisions are journaled and {!flush} becomes meaningful. *)

val of_recovered :
  ?obs:Gridbw_obs.Obs.ctx ->
  policy:Gridbw_core.Policy.t ->
  Gridbw_store.Store.recovered ->
  (t, string) result
(** Resume from a recovered store: re-book every surviving admission in
    decision order (bit-identical controller state), rebuild the decision
    table (accepted / rejected / cancelled) for [query], and audit the
    recovered ledger with {!audit} before serving — [Error] describes
    the first violation if the journal is unsound.  Journals with
    capacity revisions or sheds past the prefix (fault-injector runs)
    are refused. *)

val audit :
  Gridbw_store.Store.recovered -> Gridbw_alloc.Allocation.t list option * string list
(** The recovery audit: the surviving bookings (every Accept minus the
    bookings a later Preempt released, in decision order) and the
    violations found, described.  The survivors are checked with
    {!Gridbw_check.Reference.audit_allocations} on the initial fabric,
    which is sound under any cancel history because every survivor was
    admitted with all earlier survivors still booked; then the mirror
    ledger must be within capacity.  [[]] violations = clean.  The
    survivors are [None], and only the ledger is checked, when the
    journal revises capacities past its prefix (capacity or shed events:
    a fault-injector run), since those bookings were made against a
    fabric that changed mid-run.  [gridbw recover] runs the same
    audit. *)

val handle : ?span:Gridbw_obs.Span.t -> t -> Protocol.request -> Protocol.response
(** Decide one request.  Total: validation failures come back as typed
    [Error] responses.  Duplicate [admit] ids return the recorded
    decision again without re-deciding (at-least-once retries are safe);
    [cancel] of an already-cancelled id is likewise idempotent.

    With [span] and an [admit] verb: the request id is recorded on the
    span, the decision accumulates its [Admit_search] / [Wal_append]
    stage durations, and the store mirror-ledger probes performed while
    journaling land in the span's probe count. *)

val dirty : t -> bool
(** Unflushed journal records exist: the responses of this round must not
    be released before {!flush}. *)

val flush : t -> unit
(** {!Gridbw_store.Store.flush} + clear {!dirty}.  No-op without a
    store. *)

val snapshot : t -> unit
(** Snapshot the store now (graceful-shutdown path).  No-op without a
    store. *)

val close : t -> unit

val records : t -> int
(** Journal records so far (0 without a store). *)

val accepted_count : t -> int
val rejected_count : t -> int
val active_count : t -> int

val obs : t -> Gridbw_obs.Obs.ctx
(** The telemetry context (shared metrics registry) — the [stats] verb
    dumps its registry. *)
