"""``MeasurementSession.command`` returns the output its own command
produced, joined from the parts written since it began.

The reference is the ``command`` that rejoined the whole transcript
before and after each command and sliced the difference off; over a
scripted session with ``drain_output()`` between commands and a
controller restart both must return the same text for every command
and leave the same transcript."""

from repro.controller.control import PROMPT
from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.programs import install_all


class _RejoiningSession(MeasurementSession):
    def command(self, line, max_events=2_000_000):
        target = self._prompt_count() + 1
        before = len("".join(self._transcript_parts))
        self.tty.push_line(line)
        self._wait_for_prompts(target, max_events=max_events)
        text = "".join(self._transcript_parts)[before:]
        if text.endswith(PROMPT):
            text = text[: -len(PROMPT)]
        return text


def _script(session_class):
    session = session_class(Cluster(seed=59), control_machine="yellow")
    install_all(session)
    replies = []
    for line in ("filter f1 blue", "newjob j", "addprocess j red nameserver 5353"):
        replies.append(session.command(line))
    replies.append(session.drain_output())
    replies.append(session.command("startjob j"))
    session.settle(50)
    replies.append(session.command("jobs j"))
    replies.append(session.drain_output())
    session.restart_controller()
    replies.append(session.command("resume"))
    replies.append(session.command("jobs"))
    replies.append(session.command("nosuchcommand"))
    return replies, session.transcript()


def test_command_text_and_transcript_match_the_rejoining_reference():
    replies, transcript = _script(MeasurementSession)
    assert (replies, transcript) == _script(_RejoiningSession)
    assert "resumed 1 filter(s) and 1 job(s)" in replies[-3]
    assert transcript.endswith(PROMPT)
