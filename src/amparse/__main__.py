"""python -m amparse: the amparse command, without the console script."""
from .cli import main
raise SystemExit(main())
