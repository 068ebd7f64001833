# Shell functions shared by the rowserve smoke steps of CI's daemon job
# (.github/workflows/ci.yml); source this, do not run it. They expect a
# built ./rowserve in the current directory and leave the listen
# address in addr.txt and the daemon's pid in $SRV.

start() { # $1 = journal path; $2... = extra rowserve flags
  j="$1"; shift
  rm -f addr.txt
  ./rowserve -addr 127.0.0.1:0 -addr-file addr.txt -journal "$j" -workers 2 "$@" &
  SRV=$!
  for _ in $(seq 200); do
    test -s addr.txt && curl -sf "http://$(cat addr.txt)/readyz" > /dev/null && return
    sleep 0.05
  done
  echo "rowserve never became ready"; exit 1
}

wait_done() { # $1 = sweep id; prints the results document to stdout
  for _ in $(seq 600); do
    st=$(curl -s "http://$(cat addr.txt)/v1/sweeps/$1" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
    if [ "$st" = done ]; then
      curl -s "http://$(cat addr.txt)/v1/sweeps/$1/results"; return
    fi
    sleep 0.1
  done
  echo "sweep $1 never finished"; exit 1
}
