#!/bin/sh
# Socket mode answers per line: over one persistent connection every
# request is answered as soon as its line arrives, although the batch
# window (64) is far larger than the session; a second connection sees the
# stream state the first one left; SIGTERM ends the server with exit 0 and
# removes the socket.
#
# usage: serve_socket_per_line.sh DMT_SERVE WORK_DIR
serve=$1 work=$2
fail() { echo "$*"; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
"$serve" --model GLM --features 2 --classes 2 --batch-window 64 \
  --socket serve.sock 2> server.log &
server=$!
polls=0
until [ -S serve.sock ]; do
  polls=$((polls + 1))
  if [ "$polls" -gt 3000 ] || ! kill -0 "$server" 2> /dev/null; then
    kill -KILL "$server" 2> /dev/null
    fail "the server never opened its socket: $(cat server.log)"
  fi
  sleep 0.01
done
python3 - <<'PY'
import socket, sys

def connect():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(60)
    s.connect("serve.sock")
    return s

def ask(s, line):
    s.sendall(line.encode() + b"\n")
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(4096)
        if not chunk:
            sys.exit("server closed mid-request")
        buf += chunk
    return buf.decode().strip()

def expect(got, want, prefix=False):
    if not (got.startswith(want) if prefix else got == want):
        sys.exit(f"got {got!r}, expected {want!r}")

s = connect()
expect(ask(s, "train u 0.1,0.9,1"), "OK train u n=1")
expect(ask(s, "score u 0.2,0.5"), "OK score u pred=", prefix=True)
expect(ask(s, "train u 0.3,0.4,0"), "OK train u n=2")
s.shutdown(socket.SHUT_RDWR)
s.close()
s = connect()
expect(ask(s, "train u 0.5,0.5,1"), "OK train u n=3")
s.close()
PY
status=$?
kill -TERM "$server"
wait "$server"
code=$?
[ "$status" -eq 0 ] || fail "the socket session failed"
[ "$code" -eq 0 ] || fail "the server exited $code after SIGTERM, expected 0"
[ ! -e serve.sock ] || fail "the server left its socket behind"
echo "socket answered per line"
