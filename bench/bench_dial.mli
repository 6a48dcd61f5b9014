(** The tradeoff-dial sweep (bin/bench.exe --dial): Theorem 1's
    read/update frontier measured, not just certified.

    Two independent sections: exact solo step counts per dial point over
    Memsim (read Θ(f) vs increment O(log(N/f))), and a noisy-but-honest
    throughput sweep of the unboxed compile over domains × read share —
    the crossover between dial points slides monotonically with the read
    share, which is the paper's tradeoff made operational. *)

val n : int
(** 64: the leaf count of every dial point swept, and the pid space of
    the boxed family. *)

type config = {
  domain_counts : int list;
  read_shares : int list;
  seconds : float;
  trials : int;
  quick : bool;
}

val config :
  ?quick:bool ->
  ?max_domains:int ->
  ?seconds:float ->
  ?trials:int ->
  ?read_shares:int list ->
  unit ->
  config
(** Raises [Invalid_argument] on bad sweep inputs, exactly as
    {!Bench_native.config} ({!Bench_native.check_sweep}). *)

(** {1 Exact solo steps (Memsim)} *)

type step_row = {
  dial : Treeprim.Dial.t;
  f : int;
  read_steps : int;
  inc_steps : int;  (** max over all pids *)
}

val steps_rows : n:int -> step_row list

val steps_table :
  ?envelope:(Treeprim.Dial.t -> int * int) ->
  n:int -> step_row list -> string
(** [envelope dial] supplies certified (read, increment) step ceilings
    as extra columns — injected by the caller so benchkit itself does
    not depend on the lint library. *)

(** {1 Throughput sweep (unboxed compile)} *)

type row = {
  t_dial : Treeprim.Dial.t;
  domains : int;
  read_pct : int;
  mops : float;  (** {!Bench_native.median} of [trial_mops] *)
  trial_mops : float list;
  rsd : float;  (** {!Bench_native.rsd} of [trial_mops] *)
}

val sweep : ?progress:(string -> unit) -> config -> row list
val table : row list -> string

val to_json : cfg:config -> steps:step_row list -> row list -> Obs.Json_out.t
(** Schema ["bench-dial/v1"]: a ["steps"] section and a ["rows"]
    section. *)
