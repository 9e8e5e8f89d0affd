MODULE Ledger;
(* A sorted table of ledger entries settled against a balance:
   enumerations, records, pointers and NEW, an array of pointers,
   LOOP/EXIT, CASE, a nested procedure and BITSET membership.

   The pointer's record is anonymous and the entries are not chained
   through a `next` pointer, on purpose. `POINTER TO Name` is created
   pending and patched when the declaration part ends, and on two
   threads a procedure body now and then gets there first and reports
   `no field ... in this record` on a correct program (about one
   compile in a hundred with a named `Entry` record here): see "What
   the first numbers say" in perf/README.md. A check that fails at random
   measures nothing, so this program stays clear of it. *)

TYPE
  Kind = (deposit, withdrawal, fee);
  EntryPtr = POINTER TO RECORD amount : INTEGER; kind : Kind END;

VAR
  slot : ARRAY [0..7] OF EntryPtr;
  count : INTEGER;
  balance, fees : INTEGER;
  seen : BITSET;

PROCEDURE Insert(amount : INTEGER; kind : Kind);
VAR node : EntryPtr; at : INTEGER;
BEGIN
  NEW(node);
  node^.amount := amount; node^.kind := kind;
  at := count;
  LOOP
    IF at = 0 THEN EXIT END;
    IF slot[at - 1]^.amount < amount THEN EXIT END;
    slot[at] := slot[at - 1]; at := at - 1
  END;
  slot[at] := node; count := count + 1
END Insert;

PROCEDURE Settle;
VAR i : INTEGER;

  PROCEDURE Apply(e : EntryPtr);
  BEGIN
    CASE e^.kind OF
      deposit : balance := balance + e^.amount |
      withdrawal : balance := balance - e^.amount |
      fee : balance := balance - e^.amount; fees := fees + e^.amount
    END;
    IF e^.amount < 32 THEN INCL(seen, e^.amount) END
  END Apply;

BEGIN
  i := 0;
  WHILE i < count DO
    Apply(slot[i]);
    WriteInt(slot[i]^.amount, 4);
    i := i + 1
  END;
  WriteLn
END Settle;

BEGIN
  count := 0; balance := 100; fees := 0; seen := {};
  Insert(40, deposit); Insert(7, fee); Insert(25, withdrawal);
  Insert(3, fee); Insert(60, deposit); Insert(12, withdrawal);
  Settle;
  WriteString('balance '); WriteInt(balance, 0);
  WriteString(' fees '); WriteInt(fees, 0); WriteLn;
  IF 3 IN seen THEN
    IF NOT (40 IN seen) THEN WriteString('small amounts tracked') END
  END;
  WriteLn
END Ledger.
