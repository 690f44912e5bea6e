"""Banking: Fig. 11's snapshot transactions, conflicts, recovery.

Run:  python examples/banking_transactions.py

Shows: the verbatim Fig. 11 transfer, money conservation, snapshot
stability for concurrent readers, first-committer-wins aborts under
contention, rollback, WAL-based recovery, and checkpoint/restore.
"""

import os
import tempfile

import repro
from repro.errors import TransactionConflictError
from repro.storage import StorageEngine, WriteAheadLog
from repro.workloads import generate_banking


def main() -> None:
    wal_path = os.path.join(tempfile.mkdtemp(), "bank.wal")
    db = repro.connect(name="bank", wal_path=wal_path)
    data = generate_banking(n_accounts=50, n_transfers=200,
                            initial_balance=1000, seed=3)
    db["accounts"] = dict(data.accounts)
    total_before = sum(t("balance") for t in db.accounts.tuples())

    # ---- Fig. 11 verbatim ------------------------------------------------------
    repro.begin()
    accounts = db.accounts
    accounts[42]["balance"] -= 100
    accounts[84 % 50 + 1]["balance"] += 100
    repro.commit()
    print("Fig. 11 transfer committed.")

    # ---- run the generated transfer mix -----------------------------------------
    committed = aborted = 0
    for transfer in data.transfers:
        try:
            with db.transaction():
                accounts[transfer.src]["balance"] -= transfer.amount
                accounts[transfer.dst]["balance"] += transfer.amount
            committed += 1
        except TransactionConflictError:
            aborted += 1
    total_after = sum(t("balance") for t in db.accounts.tuples())
    print(f"transfers: {committed} committed, {aborted} aborted; "
          f"money conserved: {total_before == total_after}")

    # ---- snapshot stability + first-committer-wins --------------------------------
    reader = db.begin()
    snapshot_balance = accounts(1)("balance")
    reader.pause()
    with db.transaction():
        accounts[1]["balance"] = 0
    reader.resume()
    assert accounts(1)("balance") == snapshot_balance  # reader unaffected
    reader.commit()
    print("snapshot stability: reader kept its view while a writer "
          "committed.")

    t1 = db.begin()
    accounts[2]["balance"] = 111
    t1.pause()
    t2 = db.begin()
    accounts[2]["balance"] = 222
    t2.pause()
    t1.resume()
    t1.commit()
    t2.resume()
    try:
        t2.commit()
        raise AssertionError("second writer must abort")
    except TransactionConflictError:
        print("first-committer-wins: the slower writer aborted cleanly.")

    # ---- durability: recover from the WAL -------------------------------------------
    db.engine.wal.close()
    recovered = StorageEngine.recover(WriteAheadLog.load(wal_path))
    recovered_total = sum(
        row["balance"] for _k, row in recovered.scan("accounts", 2**62)
    )
    live_total = sum(t("balance") for t in db.accounts.tuples())
    print(f"WAL recovery: recovered total {recovered_total} == live "
          f"{live_total}: {recovered_total == live_total}")

    # ---- checkpoint / restore -----------------------------------------------------------
    ckpt = os.path.join(tempfile.mkdtemp(), "bank.ckpt.json")
    db.checkpoint(ckpt)
    restored = repro.FunctionalDatabase.restore(ckpt)
    print("checkpoint restore:",
          restored.accounts(1)("balance") == db.accounts(1)("balance"))


if __name__ == "__main__":
    main()
