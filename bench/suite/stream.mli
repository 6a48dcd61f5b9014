(** A workload's seeded operation stream.

    Two tables, drawn once from the seed with exact shares and a period
    of 4096: which batches are reads, and which writes are stale.  Each
    domain owns a cursor into them and a value sequence, kept in its own
    cache line and carried across the warmup, every trial and every
    latency pass — the harness's iteration base restarts at 0 on each
    pass, so a stream indexed by it replays already-written values and
    every later pass does less work than the first.

    Domain [d] writes values congruent to [base + d] modulo the domain
    count.  A fresh write is its previous maximum plus the domain count;
    a stale write repeats a value at most its previous maximum. *)

type t

val create :
  seed:int ->
  salt:int ->
  domains:int ->
  base:int ->
  read_share:float ->
  stale_share:float ->
  t
(** [salt] separates the streams of different workloads under one seed. *)

val next_is_read : t -> int -> bool
(** Domain [d]'s next batch kind, from the read table. *)

val next_value : t -> int -> int
(** Domain [d]'s next value to write. *)

val max_written : t -> int -> int
(** The largest value domain [d] has drawn; below [base] before any. *)

(** Per-domain tallies. *)
type slot =
  | Reads       (** read operations done *)
  | Updates     (** update operations done *)
  | Increments  (** counter increments done *)
  | Stale       (** writes at or below the domain's previous maximum *)
  | Last_max    (** the last register value this domain read *)
  | Last_count  (** the last counter value this domain read *)
  | Checks      (** checked operations *)
  | Failures    (** checked operations that failed *)

val get : t -> int -> slot -> int
val set : t -> int -> slot -> int -> unit
val add : t -> int -> slot -> int -> unit
val total : t -> slot -> int
(** The sum over domains. *)

val check : t -> int -> bool -> unit
(** Count one checked operation of domain [d], and a failure unless the
    check held. *)
