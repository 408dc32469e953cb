"""Factory for every store the paper evaluates (and the volatile one)."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.core.noblsm import NobLSM
from repro.core.noblsm_kv import NobLSMKV
from repro.baselines.bolt import BoLT
from repro.baselines.hyperleveldb import HyperLevelDBLike
from repro.baselines.l2sm import L2SMLike
from repro.baselines.pebblesdb import PebblesDBLike
from repro.baselines.rocksdb import RocksDBLike
from repro.baselines.volatile import VolatileLevelDB
from repro.fs.stack import StorageStack
from repro.lsm.db import DB
from repro.lsm.options import Options

#: the seven stores of Figures 4 and 5, plus the volatile baseline and
#: the key-value-separated NobLSM variant (which requires
#: ``Options.value_threshold``)
STORE_CLASSES: Dict[str, Type[DB]] = {
    "leveldb": DB,
    "bolt": BoLT,
    "l2sm": L2SMLike,
    "rocksdb": RocksDBLike,
    "hyperleveldb": HyperLevelDBLike,
    "pebblesdb": PebblesDBLike,
    "noblsm": NobLSM,
    "noblsm-kv": NobLSMKV,
    "volatile": VolatileLevelDB,
}

#: the order the paper plots them in
PAPER_STORES: List[str] = [
    "leveldb",
    "bolt",
    "l2sm",
    "rocksdb",
    "hyperleveldb",
    "pebblesdb",
    "noblsm",
]


def make_store(
    name: str,
    stack: StorageStack,
    dbname: str = "db",
    options: Optional[Options] = None,
) -> DB:
    """Instantiate a store by its paper name."""
    try:
        cls = STORE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(STORE_CLASSES))
        raise ValueError(f"unknown store {name!r}; known: {known}") from None
    return cls(stack, dbname, options=options)
