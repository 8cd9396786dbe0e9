"""A small process that starts the benchmark's commands and reports on each.

Linux folds the resident high-water mark of the process that calls exec
into the new program's ru_maxrss. A command spawned straight from run.py,
after it has generated large inputs, would therefore report run.py's peak
as its own. The launcher is forked before numpy is imported, while the
benchmark is still a bare interpreter, and every command is spawned from
it, so each command's ru_maxrss is its own.

    launcher = Launcher()            # fork as early as possible
    wall_s, maxrss_kb, status = launcher.run(argv, env, stderr_path)
    launcher.close()                 # ends the launcher and waits for it

Requests and replies are JSON lines over two pipes.
"""

import json
import os
import time


class Launcher:
    def __init__(self):
        request_r, self._request = os.pipe()
        self._reply, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._request)
            os.close(self._reply)
            try:
                _serve(request_r, reply_w)
            except BaseException:
                import traceback
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        self._out = os.fdopen(self._request, "w")
        self._in = os.fdopen(self._reply, "r")

    def run(self, argv: list[str], env: dict, stderr_path: str) -> tuple[float, int, int]:
        """Spawn argv (argv[0] an absolute path) and wait for it; stdout goes
        to /dev/null. Returns wall seconds from spawn to reap, the command's
        ru_maxrss in KiB and its exit code."""
        self._out.write(json.dumps({"argv": argv, "env": env, "stderr": stderr_path}) + "\n")
        self._out.flush()
        reply = json.loads(self._in.readline())
        return reply["wall_s"], reply["maxrss_kb"], reply["status"]

    def close(self) -> None:
        if self.pid:
            self._out.close()
            self._in.close()
            os.waitpid(self.pid, 0)
            self.pid = 0


def _serve(request_fd: int, reply_fd: int) -> None:
    with os.fdopen(request_fd, "r") as requests, os.fdopen(reply_fd, "w") as replies:
        for line in requests:
            req = json.loads(line)
            actions = [
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                 0o644),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            replies.write(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                                      "status": os.waitstatus_to_exitcode(status)}) + "\n")
            replies.flush()
