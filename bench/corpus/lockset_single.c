int Counter;

int main() {
    Counter = 1;
    Counter = Counter + 1;
    return Counter;
}
