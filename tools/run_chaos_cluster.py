#!/usr/bin/env python3
"""Kill/restart chaos harness for the real minbft_kv cluster.

Extends run_local_cluster.py with the three experiments DESIGN.md §14
describes, all against examples/minbft_kv in real UDP mode:

  default      4 replicas with file-backed durable stores under a seeded
               FaultPlan (drop/delay/duplicate/corrupt). One replica is
               kill -9'd mid-workload and restarted from its durable
               directory. Gates: the client commits every request, the
               restarted replica reports a recovery, every pair of
               replica reports agrees on the execution-log chain digest at
               every common sampled count (prefix consistency), and, when
               the plan's corrupt rate is non-zero, the replicas' summed
               corrupted= count is too (the plan really corrupted).

  --volatile   The negative experiment (the paper's classification made
               executable): the same kill -9, but the victim restarts with
               a WIPED durable directory and --volatile-usig — its USIG
               counter rewinds, exactly what durable trusted state exists
               to prevent. A fourth replica held back until the restart
               provides the fresh peer that accepts the re-issued counter
               stream, and the surviving majority keeps the original
               branch (a large --vc-timeout-ticks stops them from electing
               a new primary meanwhile). Gate: the chain digests CONFLICT
               at a common count — the harness fails if no fork appears.

  --no-replicas  Client-hang regression: zero replicas are started; the
               client must give up after bounded retries, print the
               give-up count, and exit 3 — not hang, not exit 0.

Stdlib-only. Exit status 0 iff the selected experiment's gate holds.

Usage:
    python3 tools/run_chaos_cluster.py [--binary build/examples/minbft_kv]
        [--requests 12] [--timeout-s 90] [--volatile | --no-replicas]
"""

import argparse
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPLICAS = 4

# Mild, CI-safe rates: enough loss to exercise every retry path without
# making the run's duration a coin flip. Per-process seeds are derived
# inside the binary (seed * 1000003 + id).
DEFAULT_FAULT_PLAN = """\
# run_chaos_cluster.py default plan
seed=1337
drop=20000
duplicate=20000
delay=50000
delay_min=1
delay_max=5
corrupt=10000
"""


def free_ports(n):
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def parse_chains(report):
    """'chains=4:aabbccdd,8:11223344' -> {4: 'aabbccdd', 8: '11223344'}."""
    m = re.search(r"chains=([0-9a-f:,]*)", report)
    if not m or not m.group(1):
        return {}
    out = {}
    for sample in m.group(1).split(","):
        count, digest = sample.split(":")
        out[int(count)] = digest
    return out


def chain_conflicts(reports):
    """Pairs of replica ids whose chain digests differ at a common count."""
    chains = {pid: parse_chains(rep) for pid, rep in reports.items()}
    conflicts = []
    pids = sorted(chains)
    for i, a in enumerate(pids):
        for b in pids[i + 1:]:
            for count in sorted(set(chains[a]) & set(chains[b])):
                if chains[a][count] != chains[b][count]:
                    conflicts.append((a, b, count))
                    break
    return conflicts


class Cluster:
    """Process bookkeeping shared by the three experiments."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.total = REPLICAS + 1  # + the client, the highest id
        self.ports = free_ports(self.total)
        self.peers = ",".join(f"127.0.0.1:{p}" for p in self.ports)
        self.procs = {}  # pid -> Popen (current incarnation)
        self.reports = {}  # pid -> final report text

    def durable_dir(self, pid):
        return os.path.join(self.workdir, f"replica{pid}")

    def cmd(self, pid, extra):
        return [
            self.args.binary,
            "--id", str(pid),
            "--listen", f"127.0.0.1:{self.ports[pid]}",
            "--peers", self.peers,
            "--replicas", str(REPLICAS),
            "--requests", str(self.args.requests),
            "--seed", str(self.args.seed),
            "--timeout-s", str(self.args.timeout_s),
            "--chain-interval", "1",
        ] + extra

    def launch(self, pid, extra):
        self.procs[pid] = subprocess.Popen(
            self.cmd(pid, extra), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        return self.procs[pid]

    def kill9(self, pid):
        proc = self.procs.pop(pid)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()

    def reap_replicas(self):
        """SIGTERM every live replica and collect final reports."""
        ok = True
        for pid, proc in self.procs.items():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for pid, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
                print(f"error: replica {pid} ignored SIGTERM",
                      file=sys.stderr)
                ok = False
            sys.stdout.write(out)
            self.reports[pid] = out
        self.procs.clear()
        return ok

    def kill_all(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()


def check_alive(cluster, pids):
    for pid in pids:
        proc = cluster.procs.get(pid)
        if proc is None or proc.poll() is not None:
            rc = "missing" if proc is None else proc.returncode
            print(f"error: replica {pid} died early (rc={rc})",
                  file=sys.stderr)
            if proc is not None:
                print(proc.stdout.read(), file=sys.stderr)
            return False
    return True


def run_client(cluster, extra=()):
    """Launch the client, wait it out, return (returncode, stdout)."""
    client = cluster.launch(REPLICAS, list(extra))
    del cluster.procs[REPLICAS]  # not a replica; reap here
    try:
        out, _ = client.communicate(timeout=cluster.args.timeout_s + 30)
    except subprocess.TimeoutExpired:
        client.kill()
        out, _ = client.communicate()
        print("error: client timed out (the hang this harness regresses)",
              file=sys.stderr)
        print(out, file=sys.stderr)
        return None, out
    sys.stdout.write(out)
    return client.returncode, out


def run_durable(cluster, args):
    """Kill -9 a replica mid-workload; it must rejoin from disk."""
    plan_path = os.path.join(cluster.workdir, "fault.plan")
    if args.fault_plan:
        plan_path = args.fault_plan
    else:
        with open(plan_path, "w") as f:
            f.write(DEFAULT_FAULT_PLAN)
    victim = 1  # a backup: the workload keeps flowing through the outage

    base = ["--fault-plan", plan_path, "--max-attempts", "40"]
    for pid in range(REPLICAS):
        cluster.launch(pid, base + ["--durable-dir",
                                    cluster.durable_dir(pid)])
    time.sleep(0.3)
    if not check_alive(cluster, range(REPLICAS)):
        return 1

    # Pace the client (think time between requests) so the workload spans
    # the kill/restart window instead of finishing in one burst; ticks are
    # 200us, so 1500 ticks = 300ms/request.
    client = cluster.launch(REPLICAS, base + ["--think-ticks", "1500"])
    del cluster.procs[REPLICAS]

    # Mid-workload: long enough for commits (and durable images) to exist,
    # short enough that plenty of requests remain for the rejoined replica
    # to participate in.
    time.sleep(args.kill_after_s)
    print(f"chaos: kill -9 replica {victim}")
    cluster.kill9(victim)
    time.sleep(args.restart_after_s)
    print(f"chaos: restarting replica {victim} from its durable dir")
    cluster.launch(victim, base + ["--durable-dir",
                                   cluster.durable_dir(victim)])

    try:
        out, _ = client.communicate(timeout=args.timeout_s + 30)
    except subprocess.TimeoutExpired:
        client.kill()
        out, _ = client.communicate()
        print("error: client timed out", file=sys.stderr)
        print(out, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    m = re.search(r"completed=(\d+) gave_up=(\d+)", out)
    if client.returncode != 0 or not m or int(m.group(1)) < args.requests:
        print(f"error: client rc={client.returncode}, report: "
              f"{m.group(0) if m else 'missing'}", file=sys.stderr)
        return 1

    # Give the rejoined replica a beat to finish state transfer before the
    # SIGTERM snapshot (and to be safely past signal-handler install).
    time.sleep(1.0)
    if not cluster.reap_replicas():
        return 1
    victim_report = cluster.reports[victim]
    if "(recovering from durable image)" not in victim_report:
        print("error: restarted replica did not boot from its durable image",
              file=sys.stderr)
        return 1
    rm = re.search(r"recoveries=(\d+)", victim_report)
    if not rm or int(rm.group(1)) < 1:
        print("error: restarted replica reports no recovery",
              file=sys.stderr)
        return 1

    conflicts = chain_conflicts(cluster.reports)
    if conflicts:
        print(f"error: execution logs diverged: {conflicts}", file=sys.stderr)
        return 1
    with open(plan_path) as f:
        cm = re.search(r"^corrupt=(\d+)", f.read(), re.MULTILINE)
    corrupted = sum(int(c) for rep in cluster.reports.values()
                    for c in re.findall(r"corrupted=(\d+)", rep))
    if cm and int(cm.group(1)) > 0 and corrupted == 0:
        print("error: the plan sets a corrupt rate but no replica reports "
              "a corrupted payload", file=sys.stderr)
        return 1
    caught_up = sum(
        1 for rep in cluster.reports.values()
        if (em := re.search(r"executed=(\d+)", rep))
        and int(em.group(1)) >= args.requests)
    f = (REPLICAS - 1) // 2
    if caught_up < f + 1:
        print(f"error: only {caught_up} replicas executed everything "
              f"(need >= f+1 = {f + 1})", file=sys.stderr)
        return 1
    print(f"ok: durable chaos run committed {args.requests}/{args.requests}, "
          f"replica {victim} recovered, logs prefix-consistent "
          f"({caught_up}/{REPLICAS} fully caught up, {corrupted} payloads "
          f"corrupted)")
    return 0


def run_volatile(cluster, args):
    """The negative experiment: a wiped restart must fork the log."""
    # A view change would move primacy off the victim during its outage and
    # defuse the experiment; park it beyond the run's horizon.
    vc = ["--vc-timeout-ticks", str(args.timeout_s * 2 * 5000)]  # ticks@200us
    victim = 0  # the view-0 primary: its counter stream is the log
    held_back = 3  # the fresh peer that will accept the rewound stream

    for pid in range(REPLICAS):
        if pid == held_back:
            continue
        cluster.launch(pid, vc + ["--durable-dir",
                                  cluster.durable_dir(pid)])
    time.sleep(0.3)
    if not check_alive(cluster, [0, 1, 2]):
        return 1

    client = cluster.launch(
        REPLICAS, ["--max-attempts", "40", "--think-ticks", "1500"])
    del cluster.procs[REPLICAS]

    time.sleep(args.kill_after_s)
    print(f"chaos: kill -9 replica {victim} (the primary)")
    cluster.kill9(victim)
    # Power loss without durable state: the image is gone, the counter
    # rewinds. The held-back replica starts fresh alongside it — the only
    # peer whose expected counter matches the rewound stream.
    shutil.rmtree(cluster.durable_dir(victim), ignore_errors=True)
    time.sleep(args.restart_after_s)
    print(f"chaos: restarting replica {victim} with wiped durable state, "
          f"starting fresh replica {held_back}")
    cluster.launch(victim, vc + ["--volatile-usig", "--durable-dir",
                                 cluster.durable_dir(victim)])
    cluster.launch(held_back, vc)

    # The client may or may not complete on the forked branch — the
    # experiment's observable is the fork itself, so just let the workload
    # play out for a while.
    try:
        client.communicate(timeout=args.timeout_s + 30)
    except subprocess.TimeoutExpired:
        client.kill()
        client.communicate()

    time.sleep(1.0)
    if not cluster.reap_replicas():
        return 1
    conflicts = chain_conflicts(cluster.reports)
    if not conflicts:
        print("error: volatile-counter restart produced NO fork — the "
              "negative experiment lost its teeth (or the kill window "
              "missed all in-flight slots; try --kill-after-s)",
              file=sys.stderr)
        return 1
    print(f"ok: volatile-counter restart forked the log as predicted: "
          f"divergent chain digests at {conflicts}")
    return 0


def run_no_replicas(cluster, args):
    """Satellite regression: a client with no cluster must exit 3 fast."""
    rc, out = run_client(
        cluster, ["--max-attempts", "5", "--timeout-s",
                  str(args.timeout_s)])
    if rc is None:
        return 1
    m = re.search(r"completed=(\d+) gave_up=(\d+)", out)
    if rc != 3 or not m or int(m.group(2)) != args.requests:
        print(f"error: expected exit 3 with gave_up={args.requests}, got "
              f"rc={rc}, report: {m.group(0) if m else 'missing'}",
              file=sys.stderr)
        return 1
    print(f"ok: clientless-cluster run gave up cleanly "
          f"(gave_up={m.group(2)}, exit 3)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default="build/examples/minbft_kv")
    parser.add_argument("--requests", type=int, default=12)
    parser.add_argument("--timeout-s", type=int, default=90)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fault-plan", default="",
                        help="FaultPlan text file (default: a built-in "
                             "mild plan; default mode only)")
    parser.add_argument("--kill-after-s", type=float, default=1.5,
                        help="workload time before the kill -9")
    parser.add_argument("--restart-after-s", type=float, default=0.7,
                        help="outage duration before the restart")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--volatile", action="store_true",
                      help="negative experiment: wiped restart must fork")
    mode.add_argument("--no-replicas", action="store_true",
                      help="client give-up regression (zero replicas)")
    args = parser.parse_args()

    binary = os.path.abspath(args.binary)
    if not os.access(binary, os.X_OK) and not os.path.isabs(args.binary):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        binary = os.path.join(repo_root, args.binary)
    if not os.access(binary, os.X_OK):
        print(f"error: {binary} not found or not executable "
              "(build the repo first)", file=sys.stderr)
        return 1
    args.binary = binary

    with tempfile.TemporaryDirectory(prefix="unidir-chaos-") as workdir:
        cluster = Cluster(args, workdir)
        try:
            if args.no_replicas:
                return run_no_replicas(cluster, args)
            if args.volatile:
                return run_volatile(cluster, args)
            return run_durable(cluster, args)
        finally:
            cluster.kill_all()


if __name__ == "__main__":
    sys.exit(main())
