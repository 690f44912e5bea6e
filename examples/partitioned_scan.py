"""Walkthrough: horizontal partitioning + pruned scans.

Run with ``PYTHONPATH=src python examples/partitioned_scan.py``.

The script creates the retail customers table hash-partitioned on
``state``, shows how ``repro.exec.explain`` renders the partition plan
(scheme, pruned vs scanned partitions, on the scan line), certifies the
pruning by rows scanned rather than by a stopwatch, and shows IVM's
dirty-partition routing.
"""

import repro as fql
from repro.exec import explain
from repro.obs.resources import metered
from repro.partition import hash_partition
from repro.workloads import generate_retail


def main() -> None:
    data = generate_retail(n_customers=4000, n_products=200, n_orders=8000)

    # -- 1. a partitioned table --------------------------------------------------
    db = data.to_stored_database(
        name="retail", partition_customers=hash_partition("state", n=4)
    )
    print("partition layout:", db.partition_layout("customers"))

    # Tables can also be declared partitioned directly:
    #   db.create_table('customers', rows, key_name='cid',
    #                   partition_by=hash_partition('state', 4))
    # or re-partitioned in place (history preserved):
    #   db.partition_table('customers', range_partition('age', [30, 60]))

    # -- 2. pruning: the filter statically eliminates partitions ------------------
    ny = fql.filter(db.customers, state="NY")
    print("\n--- explain(filter(customers, state='NY')) ---")
    print(explain(ny))

    # -- 3. what pruning saves, counted ---------------------------------------------
    def rows_scanned(expr):
        with metered(db.engine) as meter:
            results = sum(1 for _ in expr.items())
        return meter.rows_scanned, results

    total = len(db.customers)
    for label, expr in [
        ("state == 'NY'", ny),
        (
            "state in ['NY', 'CA']",
            fql.filter(db.customers, "state in ['NY', 'CA']"),
        ),
        (
            "age > 40 (not the scheme attribute)",
            fql.filter(db.customers, "age > 40"),
        ),
        (
            "opaque lambda",
            fql.filter(lambda c: c.state == "NY", db.customers),
        ),
    ]:
        scanned, results = rows_scanned(expr)
        print(
            f"{label:<38} scanned {scanned:>5}/{total} rows "
            f"-> {results} results"
        )

    # -- 4. IVM routes maintenance by dirty partition ------------------------------
    view = db.create_maintained_view("ny_customers", ny)
    len(view)  # settle the snapshot
    ca_key = next(
        k for k, t in db.customers.items() if t("state") == "CA"
    )
    db.customers[ca_key]["age"] = 99  # a CA-partition commit
    view.sync()
    print(
        "\nafter a CA-only commit, the NY view skipped maintenance:",
        view.maintenance_stats["partition_skips"], "skip(s)",
    )


if __name__ == "__main__":
    main()
