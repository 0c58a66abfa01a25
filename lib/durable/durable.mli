(** Crash-safe durable store for the mutable Wavelet Trie variants: a
    checksummed format-v2 snapshot plus a CRC-framed write-ahead log,
    kept in a directory ([<dir>/snapshot.wtx], [<dir>/wal.log]).

    Guarantees, enforced by the fault-injection suite
    ([test/test_faults.ml]):
    - snapshot writes are atomic — a crash mid-save leaves the previous
      snapshot intact;
    - a crash mid-append leaves a torn WAL tail; {!open_} replays every
      complete, checksum-valid record before it and truncates the rest;
    - a crash mid-checkpoint can never replay records twice: the WAL
      carries the generation of the snapshot it applies to, and a
      stale-generation log is discarded, not replayed;
    - corruption (bit flips, truncation) raises {!Format_error} — the
      library never crashes on it and never silently serves wrong
      answers.

    Mutations are logged before they are applied; once past a size
    threshold the log is absorbed into a fresh snapshot
    ({!checkpoint}).  Recovery work is reported through the
    {!Wt_obs.Probe} layer ([durable_*] metrics).  Strings at this API
    are byte strings, as in the {!Wtrie} front door. *)

module Fault = Wt_durable.Fault

exception Format_error of string
(** Same exception as [Wt_core.Persist.Format_error]. *)

type variant = [ `Append | `Dynamic ]
type t

type recovery = {
  snapshot_generation : int;
  replayed : int;  (** WAL records applied on top of the snapshot *)
  dropped_bytes : int;  (** torn-tail bytes discarded *)
  wal_reset : bool;  (** log was torn at the header or stale-generation *)
  checkpointed : bool;
}

val create : ?checkpoint_bytes:int -> variant:variant -> string -> t
(** Initialize a fresh store directory (created if missing).
    [Invalid_argument] if it already holds a store. *)

val open_ : ?checkpoint_bytes:int -> ?verify:bool -> string -> t * recovery
(** Load the snapshot, replay the WAL's verified prefix, truncate any
    torn tail, and reopen for writing.  [verify] (default [true]) runs
    [check_invariants] on the recovered trie, mapping failures to
    {!Format_error}. *)

val open_read_only : ?verify:bool -> string -> t * recovery
(** Like {!open_} but touches nothing on disk; mutations raise. *)

val close : t -> unit
val is_store : string -> bool

(** {1 Mutations} — logged to the WAL before being applied. *)

val append : t -> string -> unit

val insert : t -> int -> string -> unit
(** Dynamic stores only; [Invalid_argument] on an append-only store. *)

val delete : t -> int -> unit
(** Dynamic stores only; [Invalid_argument] on an append-only store. *)

val checkpoint : t -> unit
(** Absorb the WAL into a fresh snapshot (next generation) and reset
    the log.  Automatic once the WAL exceeds [checkpoint_bytes]
    (default 1 MiB). *)

(** {1 Accessors} *)

val dir : t -> string
val variant : t -> variant
val variant_name : variant -> string
val generation : t -> int
val wal_bytes : t -> int
val length : t -> int
val access : t -> int -> string
val distinct_count : t -> int
val stats : t -> Wt_core.Stats.t

val append_trie : t -> Wt_core.Append_wt.t option
(** The underlying trie when the store is append-only — the same value
    the [Wtrie.Append] front door and [Wt_analytics.Analytics] operate on. *)

val dynamic_trie : t -> Wt_core.Dynamic_wt.t option

val check : t -> unit
(** [check_invariants] on the live trie; {!Format_error} on failure. *)

(** {1 Verify / recover} *)

type verify_report = {
  v_variant : variant;
  v_generation : int;
  v_length : int;
  v_distinct : int;
  v_wal_records : int;  (** records in the verified WAL prefix *)
  v_dropped_bytes : int;
  v_wal_reset : bool;
  v_clean : bool;  (** no torn tail, no pending reset, invariants ok *)
}

val verify : string -> verify_report
(** Read-only deep verification of a store directory: checksums,
    replay of the WAL prefix, [check_invariants].  Raises
    {!Format_error} on unrecoverable corruption. *)

val recover : ?checkpoint_bytes:int -> string -> recovery
(** Open read-write (replaying and truncating), checkpoint the
    recovered state into a fresh snapshot, and close.  After a
    successful recover, {!verify} reports a clean store. *)
