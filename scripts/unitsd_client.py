"""A second-parser frame client for a running unitsd, used by ci.sh.

It speaks the 4-byte big-endian length-prefixed JSON frames with
Python's own json module, so the Rust client and codec cannot mask a
framing or encoding bug on either side of the socket.

    python3 scripts/unitsd_client.py smoke SOCKET
        Two tenants, load, invoke, a linked plug-in, a run nested past
        the reader's cap, hot swap, version-owned artifacts, mistyped
        fields, per-request budgets, admission denial, stats, shutdown.
        Expects `unitsd --level untyped --fuel 1000000`, on any backend.
    python3 scripts/unitsd_client.py reclaim SOCKET PID
        Every run's store is reclaimed: 2,000 invokes of a 32-unit chain
        plug-in grow the daemon's (PID's) resident set by under 4 MiB
        and peak at the 225 store cells of the flattened chain, five
        programs that each build and drop a structure 1,000,000
        deep return while another tenant keeps being served, and stats
        report no retained cells. Expects `unitsd --level untyped` with
        no fuel cap, on either compiled backend.
    python3 scripts/unitsd_client.py cold|warm|corrupt SOCKET
        One `run`, then the persistent-store checks for that phase of
        the --cache-dir gate, then shutdown.
    python3 scripts/unitsd_client.py flip CACHE_DIR
        Flips one byte in the middle of the cache's only entry.
"""

import glob
import json
import os
import socket
import struct
import sys
import time


def connect(path):
    deadline = time.time() + 30
    while True:
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(path)
            return s
        except OSError:
            assert time.time() < deadline, 'unitsd never came up'
            time.sleep(0.05)


def recv_exact(s, n):
    data = b''
    while len(data) < n:
        chunk = s.recv(n - len(data))
        assert chunk, 'server hung up'
        data += chunk
    return data


def call(s, obj):
    body = json.dumps(obj).encode()
    s.sendall(struct.pack('>I', len(body)) + body)
    (n,) = struct.unpack('>I', recv_exact(s, 4))
    return json.loads(recv_exact(s, n))


# A compound of four clauses: a sealed constituent hides `secret` and
# provides `scale` under the outer name `times` (a rename pair); the
# next imports it under the inner name `f`; `bonus` and `result` are
# provided but not exported, so their cells are hidden. Calling it with
# n gives n*n + 100.
LINKED = """(unit (import) (export)
  (init (lambda (n)
    (invoke
      (compound (import base) (export)
        (link ((seal (unit (import base) (export scale secret)
                       (define scale (lambda (x) (* x base)))
                       (define secret 7))
                     (sig (import base) (export scale) (init void)))
               (with base) (provides (as scale times)))
              ((unit (import) (export bonus) (define bonus 100))
               (with) (provides bonus))
              ((unit (import f bonus) (export result)
                 (define result (lambda (x) (+ (f x) bonus))))
               (with (as f times) bonus) (provides result))
              ((unit (import result base) (export) (init (result base)))
               (with result base) (provides))))
      (val base n)))))"""


def smoke(path):
    square = '(unit (import) (export) (init (lambda (n) (* n n))))'
    cube = '(unit (import) (export) (init (lambda (n) (* n (* n n)))))'

    a, b = connect(path), connect(path)
    assert call(a, {'op': 'hello', 'tenant': 'a'})['ok']
    assert call(b, {'op': 'hello', 'tenant': 'b'})['ok']

    # Private namespaces: both tenants own the name `f`.
    assert call(a, {'op': 'load', 'name': 'f', 'source': square})['version'] == 1
    assert call(b, {'op': 'load', 'name': 'f', 'source': cube})['version'] == 1
    assert call(a, {'op': 'invoke', 'name': 'f', 'arg': 6})['value'] == '36'
    assert call(b, {'op': 'invoke', 'name': 'f', 'arg': 6})['value'] == '216'

    # A linked plug-in: each invoke wires the compound from its link plan.
    assert call(b, {'op': 'load', 'name': 'linked', 'source': LINKED})['version'] == 1
    for arg in [0, 6, -9]:
        reply = call(b, {'op': 'invoke', 'name': 'linked', 'arg': arg})
        assert reply['ok'] and reply['value'] == str(arg * arg + 100), reply

    # A source nested 10,000 lists deep (80 KB, far under the frame
    # limit) is a typed refusal naming the reader's cap, not a stack
    # overflow that aborts the daemon: the same connection and the
    # other tenant still answer.
    deep = '(begin ' * 10000 + '1' + ')' * 10000
    refused = call(a, {'op': 'run', 'source': deep})
    assert refused['ok'] is False and refused['kind'] == 'engine', refused
    assert 'nest deeper than' in refused['message'], refused
    assert call(a, {'op': 'invoke', 'name': 'f', 'arg': 6})['value'] == '36'
    assert call(b, {'op': 'invoke', 'name': 'f', 'arg': 6})['value'] == '216'

    # Hot swap on tenant a only.
    swap = call(a, {'op': 'swap', 'name': 'f', 'source': cube})
    assert sorted(swap) == ['name', 'ok', 'version'], swap
    assert swap['ok'] and swap['version'] == 2, swap
    assert call(a, {'op': 'invoke', 'name': 'f', 'arg': 2})['value'] == '8'

    # Plug-in versions own their artifacts: loads, the swap and invokes
    # with any number of distinct arguments leave the engine's cache
    # empty.
    entries = []
    for arg in [3, 4, 5, 6, 7, 8]:
        assert call(a, {'op': 'invoke', 'name': 'f', 'arg': arg})['value'] == str(arg ** 3)
        entries.append(call(a, {'op': 'stats'})['engine']['cache']['entries'])
    assert entries == [0] * 6, entries

    # A mistyped optional field is a typed refusal, not a silently
    # argument-less invoke, and the connection keeps serving. An
    # integer too large for i64 is mistyped the same way.
    for arg in ['7', 10 ** 20]:
        bad = call(a, {'op': 'invoke', 'name': 'f', 'arg': arg})
        assert bad['ok'] is False and bad['kind'] == 'bad-request', bad
        assert 'arg' in bad['message'], bad
        assert call(a, {'op': 'invoke', 'name': 'f', 'arg': 7})['value'] == '343'

    # Admission control: over-asking the daemon cap is a typed refusal.
    denied = call(a, {'op': 'invoke', 'name': 'f', 'arg': 2, 'fuel': 10000000})
    assert denied == dict(denied, ok=False, kind='admission-denied',
                          requested=10000000, cap=1000000), denied
    # Under the cap the same request is served.
    ok = call(a, {'op': 'invoke', 'name': 'f', 'arg': 2, 'fuel': 1000})
    assert ok['ok'] and ok['value'] == '8', ok

    stats = call(b, {'op': 'stats'})
    # The engine object is MetricsSnapshot::to_json, the schema the
    # REPL and the bench share.
    assert sorted(stats['engine']) == ['cache', 'flight', 'invoke_latency', 'runs',
                                       'store'], stats['engine']
    assert sorted(stats['engine']['flight']) == ['dump_failures', 'dumps'], stats['engine']
    tenants = stats['tenants']
    assert tenants['a']['rejected'] == 1 and tenants['a']['failed'] == 1, tenants
    assert tenants['b']['ok'] == 5, tenants
    assert call(b, {'op': 'shutdown'})['stopping']
    print('unitsd smoke: 2 tenants, linked plug-in, nesting cap, swap, admission, '
          'stats, shutdown OK')


def chain(length, pads):
    """A chain of `length` units, each adding 3 and exporting `pads`
    integer pads the next unit imports: calling it with n gives
    n + 3 * (length - 1)."""
    links, prev = [], ''
    for i in range(length):
        ports = f' f{i}' + ''.join(f' p{i}_{k}' for k in range(pads))
        defs = ''.join(f' (define p{i}_{k} {i * pads + k})' for k in range(pads))
        body = 'x' if i == 0 else f'(f{i - 1} (+ x 3))'
        links.append(f'((unit (import{prev}) (export{ports}) '
                     f'(define f{i} (lambda (x) {body})){defs}) '
                     f'(with{prev}) (provides{ports}))')
        prev = ports
    last = length - 1
    return (f'(unit (import) (export) (init (lambda (n) (invoke '
            f'(compound (import x0) (export) (link {" ".join(links)} '
            f'((unit (import f{last} x0) (export) (init (f{last} x0))) '
            f'(with f{last} x0) (provides)))) (val x0 n)))))')


# Each builds a structure N deep, drops it, and returns 42: a datatype
# list, a tuple chain, a closure chain, a chain of recursive closures
# (each in its own letrec cell) and a chain of hash tables.
def deep_programs(n):
    build = ('(define build (lambda (n acc) (if (= n 0) acc (build (- n 1) {}))))'
             .format)
    program = '(letrec ({}) (begin (build {} {}) 42))'.format
    return {
        'list': program('(datatype lst (cons uncons void) (nil unnil void) cons?) '
                        + build('(cons (tuple n acc))'), n, '(nil void)'),
        'tuples': program(build('(tuple n acc)'), n, '0'),
        'closures': program(build('(lambda () (acc))'), n, '(lambda () 0)'),
        'cells': program(build('(letrec ((define g (lambda () (acc)))) g)'), n,
                         '(lambda () 0)'),
        'hashes': program(build('(let ((h (hash-new))) (begin (hash-set! h "next" acc) h))'),
                          n, '0'),
    }


def rss_kib(pid):
    with open(f'/proc/{pid}/status') as status:
        for line in status:
            if line.startswith('VmRSS:'):
                return int(line.split()[1])
    raise AssertionError('no VmRSS for pid ' + pid)


def reclaim(path, pid):
    a, b = connect(path), connect(path)
    assert call(a, {'op': 'hello', 'tenant': 'a'})['ok']
    assert call(b, {'op': 'hello', 'tenant': 'b'})['ok']
    assert call(a, {'op': 'load', 'name': 'chain', 'source': chain(32, 6)})['ok']
    square = '(unit (import) (export) (init (lambda (n) (* n n))))'
    assert call(b, {'op': 'load', 'name': 'f', 'source': square})['ok']

    # The leak this gate guards against held about 33 KiB per invoke.
    def invoke_chain(times):
        for arg in range(times):
            reply = call(a, {'op': 'invoke', 'name': 'chain', 'arg': arg})
            assert reply['ok'] and reply['value'] == str(arg + 93), reply
    invoke_chain(100)
    before = rss_kib(pid)
    invoke_chain(2000)
    grown = rss_kib(pid) - before
    assert grown < 4 * 1024, f'2,000 chain invokes grew VmRSS by {grown} KiB'

    # The chain is a compound of closed unit literals, so the daemon runs
    # it flattened into one unit: a cell per definition and one for the
    # import. Wired from a link plan it would take 449.
    runs = call(b, {'op': 'stats'})['engine']['runs']
    assert runs['store_cells_peak'] == 225, runs

    # Dropping a deep structure does not overflow the connection's stack,
    # which would abort the daemon for every tenant.
    for name, source in deep_programs(1_000_000).items():
        reply = call(a, {'op': 'run', 'source': source})
        assert reply['ok'] and reply['value'] == '42', (name, reply)
        assert call(b, {'op': 'invoke', 'name': 'f', 'arg': 6})['value'] == '36', name

    runs = call(b, {'op': 'stats'})['engine']['runs']
    assert runs['cells_retained'] == 0 and runs['failures'] == 0, runs
    assert call(b, {'op': 'shutdown'})['stopping']
    print(f'unitsd reclaim: 2,000 flattened chain invokes grew VmRSS by {grown} KiB; '
          f'five 1,000,000-deep structures dropped; no cells retained')


def store_gate(mode, path):
    program = '(invoke (unit (import) (export) (init (* 21 2))))'
    s = connect(path)
    assert call(s, {'op': 'hello', 'tenant': 'ci'})['ok']
    reply = call(s, {'op': 'run', 'source': program})
    assert reply['ok'] and reply['value'] == '42', reply
    if mode != 'cold':
        engine = call(s, {'op': 'stats'})['engine']
        if mode == 'warm':
            assert engine['cache']['parses'] == 0, engine
            assert engine['store']['hits'] == 1, engine
            print('store gate: cross-process warm start, zero re-parses')
        else:
            assert engine['store']['corrupt'] >= 1, engine
            assert engine['cache']['parses'] == 1, engine
            print('store gate: corrupt entry quarantined, recompiled correctly')
    assert call(s, {'op': 'shutdown'})['stopping']


def flip(cache_dir):
    [path] = glob.glob(os.path.join(cache_dir, '*.unit'))
    data = bytearray(open(path, 'rb').read())
    data[len(data) // 2] ^= 0x01
    open(path, 'wb').write(data)
    print('store gate: flipped one byte of', path)


def main(argv):
    modes = ('smoke', 'reclaim', 'cold', 'warm', 'corrupt', 'flip')
    if len(argv) != 3 + (argv[1:2] == ['reclaim']) or argv[1] not in modes:
        sys.exit(__doc__)
    mode, path = argv[1], argv[2]
    if mode == 'smoke':
        smoke(path)
    elif mode == 'reclaim':
        reclaim(path, argv[3])
    elif mode == 'flip':
        flip(path)
    else:
        store_gate(mode, path)


if __name__ == '__main__':
    main(sys.argv)
