MODULE Collatz;
(* Longest Collatz chain up to an imported bound: a function procedure,
   VAR parameters, WHILE/IF arithmetic and formatted output. *)
FROM Limits IMPORT Bound;

VAR n, best, bestLen, len : INTEGER;

PROCEDURE Steps(start : INTEGER) : INTEGER;
VAR x, count : INTEGER;
BEGIN
  x := start; count := 0;
  WHILE x # 1 DO
    IF x MOD 2 = 0 THEN x := x DIV 2 ELSE x := 3 * x + 1 END;
    INC(count)
  END;
  RETURN count
END Steps;

PROCEDURE Keep(candidate, length : INTEGER; VAR who, howLong : INTEGER);
BEGIN
  IF length > howLong THEN who := candidate; howLong := length END
END Keep;

BEGIN
  best := 1; bestLen := 0;
  FOR n := 1 TO Bound DO
    len := Steps(n);
    Keep(n, len, best, bestLen)
  END;
  WriteString('longest chain up to '); WriteInt(Bound, 0);
  WriteString(': start '); WriteInt(best, 0);
  WriteString(', '); WriteInt(bestLen, 0); WriteString(' steps'); WriteLn;
  FOR n := 1 TO 10 DO WriteInt(Steps(n), 3) END;
  WriteLn
END Collatz.
