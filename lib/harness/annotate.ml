(* Wrap instances so each high-level operation records Invoke/Return
   annotations in the session's trace, from which {!Linearize.History}
   recovers the concurrent history.  Mutators record result Bot, matching
   the convention of {!Linearize.Spec}. *)

open Memsim

let max_register session (inst : Maxreg.Max_register.instance) :
    Maxreg.Max_register.instance =
  { read_max =
      (fun () ->
        Session.annotate_invoke session ~op:"read_max" ~arg:Simval.Bot;
        let r = inst.read_max () in
        Session.annotate_return session ~op:"read_max" ~result:(Simval.Int r);
        r);
    write_max =
      (fun ~pid v ->
        Session.annotate_invoke session ~op:"write_max" ~arg:(Simval.Int v);
        inst.write_max ~pid v;
        Session.annotate_return session ~op:"write_max" ~result:Simval.Bot) }

let counter session (inst : Counters.Counter.instance) :
    Counters.Counter.instance =
  { read =
      (fun () ->
        Session.annotate_invoke session ~op:"read" ~arg:Simval.Bot;
        let r = inst.read () in
        Session.annotate_return session ~op:"read" ~result:(Simval.Int r);
        r);
    increment =
      (fun ~pid ->
        Session.annotate_invoke session ~op:"increment" ~arg:Simval.Bot;
        inst.increment ~pid;
        Session.annotate_return session ~op:"increment" ~result:Simval.Bot) }

let snapshot session (inst : Snapshots.Snapshot.instance) :
    Snapshots.Snapshot.instance =
  { scan =
      (fun () ->
        Session.annotate_invoke session ~op:"scan" ~arg:Simval.Bot;
        let r = inst.scan () in
        Session.annotate_return session ~op:"scan"
          ~result:(Simval.of_int_array r);
        r);
    update =
      (fun ~pid v ->
        Session.annotate_invoke session ~op:"update" ~arg:(Simval.Int v);
        inst.update ~pid v;
        Session.annotate_return session ~op:"update" ~result:Simval.Bot);
    add =
      (fun ~pid d ->
        Session.annotate_invoke session ~op:"add" ~arg:(Simval.Int d);
        inst.add ~pid d;
        Session.annotate_return session ~op:"add" ~result:Simval.Bot) }
