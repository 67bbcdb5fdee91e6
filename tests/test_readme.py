import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_session_runs():
    # README's ">>>" session, run as written; the fence ends its last output
    sessions = re.findall(r"```python\n(>>> .*?)```", README.read_text(), re.DOTALL)
    assert len(sessions) == 1, "README should hold one >>> session"
    test = doctest.DocTestParser().get_doctest(sessions[0], {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
